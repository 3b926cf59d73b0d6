#include "obs/audit.h"

#include <mutex>
#include <utility>

#include "common/error.h"

namespace vizndp::obs {

namespace {

// Safe from static initializers: a constexpr mutex and a lazy map.
std::mutex catalog_mu;
std::map<std::string, std::string>& Catalog() {
  static auto* catalog = new std::map<std::string, std::string>();
  return *catalog;
}

}  // namespace

Audit::Audit(Registry& registry, std::string counter, Labels labels,
             std::string event, EventLog* journal)
    : registry_(&registry),
      counter_(std::move(counter)),
      labels_(std::move(labels)),
      event_(std::move(event)),
      journal_(journal != nullptr ? journal : &GlobalEventLog()) {
  if (registry_ != &DefaultRegistry() || journal_ != &GlobalEventLog()) {
    return;
  }
  std::lock_guard<std::mutex> lock(catalog_mu);
  const auto [it, inserted] = Catalog().emplace(event_, counter_);
  if (!inserted && it->second != counter_) {
    throw Error("audit event '" + event_ + "' already belongs to counter '" +
                it->second + "', not '" + counter_ + "'");
  }
}

Audit::Audit(std::string counter, std::string event)
    : Audit(DefaultRegistry(), std::move(counter), {}, std::move(event)) {}

void Audit::Record(std::string detail) const {
  registry_->GetCounter(counter_, labels_).Increment();
  journal_->Append(event_, std::move(detail));
}

std::map<std::string, std::string> AuditCatalog() {
  std::lock_guard<std::mutex> lock(catalog_mu);
  return Catalog();
}

}  // namespace vizndp::obs
