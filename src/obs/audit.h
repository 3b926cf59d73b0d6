// Error-path accounting by construction (DESIGN.md §9): an Audit binds
// one counter series to one journal event, and Record() is the only way
// to move either. Handles on DefaultRegistry() that write the global
// journal join a process-wide catalog, which the chaos harness audits
// after every schedule. Per-server registries stay out of it: a restart
// resets them, so a process-wide sum could not match the journal.
#pragma once

#include <map>
#include <string>

#include "obs/event_log.h"
#include "obs/metrics.h"

namespace vizndp::obs {

class Audit {
 public:
  // `journal` defaults to GlobalEventLog(). Throws Error when this is a
  // catalog handle and `event` already belongs to another family.
  Audit(Registry& registry, std::string counter, Labels labels,
        std::string event, EventLog* journal = nullptr);
  // An unlabeled series in DefaultRegistry().
  Audit(std::string counter, std::string event);

  // Increments the counter and appends one event carrying `detail` and
  // the thread's trace context. The series is looked up here, so a path
  // that never fires leaves no zero-valued series in a scrape.
  void Record(std::string detail = {}) const;

 private:
  Registry* registry_;
  std::string counter_;
  Labels labels_;
  std::string event_;
  EventLog* journal_;
};

// The catalog so far: event name -> its counter family (labels dropped).
std::map<std::string, std::string> AuditCatalog();

}  // namespace vizndp::obs
