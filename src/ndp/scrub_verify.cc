#include "ndp/scrub_verify.h"

#include <string>
#include <utility>

#include "compress/checksum.h"
#include "io/vnd_format.h"
#include "obs/audit.h"
#include "obs/metrics.h"

namespace vizndp::ndp {

namespace {

// A plain counter, not an audit: it counts every corrupt sighting on
// every pass, while scrub.quarantine journals only the transition.
obs::Counter& CorruptFoundCounter() {
  static obs::Counter& c =
      obs::DefaultRegistry().GetCounter("scrub_corrupt_found_total");
  return c;
}

const obs::Audit kQuarantine("scrub_quarantine_total", "scrub.quarantine");
const obs::Audit kReadmit("scrub_readmit_total", "scrub.readmit");

std::string BrickDetail(const std::string& key, const std::string& array,
                        std::int64_t brick) {
  return "key=" + key + " array=" + array + " brick=" + std::to_string(brick);
}

}  // namespace

namespace {

// Reconciles one brick's CRC verdict with the quarantine.
void ReconcileBrick(const std::string& key, const io::ArrayMeta& meta,
                    size_t b, ByteSpan stored,
                    storage::QuarantineSet& quarantine,
                    storage::ScrubObjectReport& report) {
  ++report.bricks_checked;
  const storage::BrickRef ref{key, meta.name, static_cast<std::int64_t>(b)};
  if (compress::Crc32(stored) != meta.bricks->entries[b].crc32) {
    ++report.corrupt;
    CorruptFoundCounter().Increment();
    if (quarantine.Add(ref)) {
      ++report.quarantined;
      kQuarantine.Record(BrickDetail(key, meta.name, ref.brick));
    }
  } else if (quarantine.Remove(ref)) {
    ++report.readmitted;
    kReadmit.Record(BrickDetail(key, meta.name, ref.brick));
  }
}

}  // namespace

storage::ScrubObjectReport ScrubVndObject(const storage::FileGateway& gateway,
                                          const std::string& key,
                                          storage::QuarantineSet& quarantine,
                                          rpc::MemoryBudget* budget) {
  storage::ScrubObjectReport report;
  const io::VndReader reader(gateway.Open(key));
  for (const io::ArrayMeta& meta : reader.header().arrays) {
    if (!meta.bricks.has_value()) continue;
    const auto& entries = meta.bricks->entries;
    if (entries.empty()) continue;

    // Fast path: verify the whole array from one coalesced read. Brick
    // reads pay the store's per-op cost, so per-brick I/O turns a pass
    // into thousands of tiny reads that queue against live traffic; one
    // ranged read per array is bandwidth-bound instead. Only taken when
    // the budget admits the whole stored array at once.
    const io::BrickEntry& last = entries.back();
    const std::uint64_t span = last.offset + last.stored_size;
    rpc::MemoryBudget::Reservation whole;
    bool admitted = budget == nullptr;
    if (!admitted) {
      try {
        whole = rpc::MemoryBudget::Reservation(*budget, span);
        admitted = true;
      } catch (const BusyError&) {
        // Fall through to the per-brick ladder below: smaller
        // reservations may still fit.
      }
    }
    if (admitted) {
      const Bytes all = reader.ReadArrayRange(meta.name, 0, span);
      for (size_t b = 0; b < entries.size(); ++b) {
        const io::BrickEntry& entry = entries[b];
        ReconcileBrick(
            key, meta, b,
            ByteSpan(all).subspan(entry.offset, entry.stored_size),
            quarantine, report);
      }
      continue;
    }

    // Pressure path: brick at a time, skipping (never failing) whatever
    // the budget cannot admit — a scrub pass must never shed user
    // traffic.
    for (size_t b = 0; b < entries.size(); ++b) {
      const io::BrickEntry& entry = entries[b];
      rpc::MemoryBudget::Reservation reservation;
      try {
        reservation =
            rpc::MemoryBudget::Reservation(*budget, entry.stored_size);
      } catch (const BusyError&) {
        // The server is under memory pressure; this brick keeps its
        // current verdict until a calmer pass.
        ++report.budget_skips;
        continue;
      }
      const Bytes stored =
          reader.ReadArrayRange(meta.name, entry.offset, entry.stored_size);
      ReconcileBrick(key, meta, b, ByteSpan(stored), quarantine, report);
    }
  }
  return report;
}

storage::ScrubVerifier MakeVndScrubVerifier(storage::FileGateway gateway,
                                            storage::QuarantineSet& quarantine,
                                            rpc::MemoryBudget* budget) {
  return [gateway = std::move(gateway), &quarantine,
          budget](const std::string& key) {
    return ScrubVndObject(gateway, key, quarantine, budget);
  };
}

}  // namespace vizndp::ndp
