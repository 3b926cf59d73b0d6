// Scrub-and-quarantine subsystem: the QuarantineSet, the VND-aware
// verifier, the background Scrubber, the bricked pre-filter's
// quarantine-skip rung, and the health surfacing — the full lifecycle
// rot -> quarantine -> clean re-Put -> skip-serve -> readmit.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "bench_util/testbed.h"
#include "compress/codec.h"
#include "io/vnd_format.h"
#include "ndp/bricked_select.h"
#include "ndp/scrub_verify.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "sim/impact.h"
#include "storage/memory_store.h"
#include "storage/scrubber.h"

namespace vizndp::storage {
namespace {

constexpr const char* kKey = "scrub.vnd";
constexpr const char* kArray = "v02";
const std::vector<double> kIsos = {0.2, 0.5};

std::uint64_t Counter(const std::string& name) {
  return obs::DefaultRegistry().GetCounter(name).value();
}

// A bricked, CRC-carrying VND object plus the plumbing to rot and
// repair it at rest.
struct ScrubFixture {
  MemoryObjectStore store;
  Bytes clean_blob;

  ScrubFixture() {
    store.CreateBucket("data");
    sim::ImpactConfig cfg;
    cfg.n = 16;
    const grid::Dataset ds = sim::GenerateImpactTimestep(cfg, 24006, {kArray});
    io::VndWriter writer(ds);
    writer.SetCodec(compress::MakeCodec("lz4"));
    writer.SetBrickSize(8);
    writer.WriteToStore(store, "data", kKey);
    clean_blob = store.Get("data", kKey);
  }

  FileGateway gateway() { return FileGateway(store, "data"); }

  // Flips one bit inside the stored bytes of the first brick that
  // straddles an isovalue (so the serving path is guaranteed to need
  // it); returns the brick id.
  std::int64_t RotBrick() {
    const io::VndReader reader(gateway().Open(kKey));
    const io::ArrayMeta* meta = reader.header().Find(kArray);
    const auto& entries = meta->bricks->entries;
    size_t victim = entries.size();
    for (size_t b = 0; b < entries.size() && victim == entries.size(); ++b) {
      for (const double iso : kIsos) {
        if (entries[b].min < iso && entries[b].max >= iso) {
          victim = b;
          break;
        }
      }
    }
    EXPECT_LT(victim, entries.size()) << "no straddling brick in fixture";
    Bytes blob = clean_blob;
    blob[static_cast<size_t>(reader.header().blob_base + meta->offset +
                             entries[victim].offset)] ^= 0x01;
    store.Put("data", kKey, blob);
    return static_cast<std::int64_t>(victim);
  }

  void Repair() { store.Put("data", kKey, clean_blob); }
};

TEST(QuarantineSet, AddRemoveContains) {
  QuarantineSet q;
  const BrickRef ref{"k", "a", 3};
  EXPECT_FALSE(q.Contains("k", "a", 3));
  EXPECT_TRUE(q.Add(ref));
  EXPECT_FALSE(q.Add(ref));  // second add is not "newly quarantined"
  EXPECT_TRUE(q.Contains("k", "a", 3));
  EXPECT_FALSE(q.Contains("k", "a", 4));
  EXPECT_EQ(q.size(), 1u);
  ASSERT_EQ(q.Snapshot().size(), 1u);
  EXPECT_EQ(q.Snapshot()[0], ref);
  EXPECT_TRUE(q.Remove(ref));
  EXPECT_FALSE(q.Remove(ref));  // already gone
  EXPECT_EQ(q.size(), 0u);
}

TEST(QuarantineSet, MaintainsGauge) {
  QuarantineSet q;
  obs::Gauge& gauge = obs::DefaultRegistry().GetGauge("scrub_quarantined");
  const double base = gauge.value();
  q.Add({"k", "a", 1});
  q.Add({"k", "a", 2});
  EXPECT_EQ(gauge.value(), base + 2);
  q.Remove({"k", "a", 1});
  EXPECT_EQ(gauge.value(), base + 1);
  q.Remove({"k", "a", 2});
  EXPECT_EQ(gauge.value(), base);
}

TEST(ScrubVerify, CleanObjectQuarantinesNothing) {
  ScrubFixture fx;
  QuarantineSet quarantine;
  const auto report = ndp::ScrubVndObject(fx.gateway(), kKey, quarantine);
  EXPECT_GT(report.bricks_checked, 0u);
  EXPECT_EQ(report.corrupt, 0u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(quarantine.size(), 0u);
}

TEST(ScrubVerify, RotIsQuarantinedOnceThenReadmitted) {
  ScrubFixture fx;
  QuarantineSet quarantine;
  const std::int64_t rotted = fx.RotBrick();

  const std::uint64_t q_before = Counter("scrub_quarantine_total");
  const std::uint64_t r_before = Counter("scrub_readmit_total");
  const std::uint64_t seq = obs::GlobalEventLog().LastSeq();

  // First pass: found and quarantined, one counter + one journal event.
  auto report = ndp::ScrubVndObject(fx.gateway(), kKey, quarantine);
  EXPECT_EQ(report.corrupt, 1u);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_TRUE(quarantine.Contains(kKey, kArray, rotted));
  EXPECT_EQ(Counter("scrub_quarantine_total"), q_before + 1);
  EXPECT_EQ(obs::GlobalEventLog().CountSince("scrub.quarantine", seq), 1u);

  // Second pass, still rotted: sighted again but NOT re-quarantined —
  // scrub_corrupt_found_total moves every pass, the quarantine event
  // only on the transition.
  report = ndp::ScrubVndObject(fx.gateway(), kKey, quarantine);
  EXPECT_EQ(report.corrupt, 1u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(Counter("scrub_quarantine_total"), q_before + 1);

  // Repair and re-scrub: the brick verifies clean and is re-admitted.
  fx.Repair();
  report = ndp::ScrubVndObject(fx.gateway(), kKey, quarantine);
  EXPECT_EQ(report.corrupt, 0u);
  EXPECT_EQ(report.readmitted, 1u);
  EXPECT_FALSE(quarantine.Contains(kKey, kArray, rotted));
  EXPECT_EQ(Counter("scrub_readmit_total"), r_before + 1);
  EXPECT_EQ(obs::GlobalEventLog().CountSince("scrub.readmit", seq), 1u);
}

TEST(ScrubVerify, BudgetPressureSkipsWithoutVerdictChanges) {
  ScrubFixture fx;
  QuarantineSet quarantine;
  fx.RotBrick();
  rpc::MemoryBudget budget;
  budget.SetLimit(1);  // nothing fits
  const auto report =
      ndp::ScrubVndObject(fx.gateway(), kKey, quarantine, &budget);
  EXPECT_EQ(report.bricks_checked, 0u);
  EXPECT_GT(report.budget_skips, 0u);
  EXPECT_EQ(quarantine.size(), 0u);  // no verdict under pressure
}

TEST(Scrubber, RunPassNowAggregatesStatus) {
  ScrubFixture fx;
  QuarantineSet quarantine;
  const std::uint64_t passes_before = Counter("scrub_pass_total");
  Scrubber scrubber(fx.gateway(),
                    ndp::MakeVndScrubVerifier(fx.gateway(), quarantine),
                    quarantine);
  fx.RotBrick();
  scrubber.RunPassNow();
  const ScrubStatus status = scrubber.status();
  EXPECT_EQ(status.passes, 1u);
  EXPECT_EQ(status.objects_checked, 1u);
  EXPECT_GT(status.bricks_checked, 0u);
  EXPECT_EQ(status.corrupt_found, 1u);
  EXPECT_EQ(status.quarantined_now, 1u);
  EXPECT_FALSE(status.running);
  EXPECT_EQ(Counter("scrub_pass_total"), passes_before + 1);
}

TEST(Scrubber, SuffixFilterSkipsForeignObjects) {
  ScrubFixture fx;
  fx.store.Put("data", "notes.txt", ToBytes("not a vnd file"));
  QuarantineSet quarantine;
  Scrubber scrubber(fx.gateway(),
                    ndp::MakeVndScrubVerifier(fx.gateway(), quarantine),
                    quarantine);
  const std::uint64_t errors_before = Counter("scrub_object_error_total");
  scrubber.RunPassNow();
  // The .txt never reached the verifier (it would throw on parse and
  // count an object error).
  EXPECT_EQ(Counter("scrub_object_error_total"), errors_before);
  EXPECT_EQ(scrubber.status().objects_checked, 1u);
}

TEST(Scrubber, BackgroundThreadMakesPasses) {
  ScrubFixture fx;
  QuarantineSet quarantine;
  ScrubberOptions options;
  options.period = std::chrono::milliseconds(2);
  Scrubber scrubber(fx.gateway(),
                    ndp::MakeVndScrubVerifier(fx.gateway(), quarantine),
                    quarantine, options);
  scrubber.Start();
  EXPECT_TRUE(scrubber.status().running);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scrubber.status().passes < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  scrubber.Stop();
  EXPECT_GE(scrubber.status().passes, 2u);
  EXPECT_FALSE(scrubber.status().running);
}

TEST(BrickedSelect, QuarantineSkipServesHealedBrick) {
  ScrubFixture fx;
  QuarantineSet quarantine;
  const std::int64_t rotted = fx.RotBrick();
  ndp::ScrubVndObject(fx.gateway(), kKey, quarantine);
  ASSERT_TRUE(quarantine.Contains(kKey, kArray, rotted));

  // Heal at rest, but do NOT re-scrub: the serving path must cope with
  // a stale quarantine verdict by re-reading and verifying.
  fx.Repair();
  const io::VndReader reader(fx.gateway().Open(kKey));
  const contour::Selection expected =
      ndp::SelectInterestingPointsBricked(reader, kArray, kIsos);

  const std::uint64_t skips_before = Counter("ndp_quarantine_skip_total");
  const std::uint64_t seq = obs::GlobalEventLog().LastSeq();
  ndp::BrickedSelectStats stats;
  const contour::Selection got = ndp::SelectInterestingPointsBricked(
      reader, kArray, kIsos, &stats, nullptr, &quarantine, kKey);

  EXPECT_EQ(got.ids, expected.ids);
  EXPECT_GE(stats.quarantine_skips, 1);
  EXPECT_EQ(Counter("ndp_quarantine_skip_total") - skips_before,
            static_cast<std::uint64_t>(stats.quarantine_skips));
  EXPECT_EQ(obs::GlobalEventLog().CountSince("ndp.quarantine_skip", seq),
            static_cast<size_t>(stats.quarantine_skips));
}

TEST(BrickedSelect, StillCorruptQuarantinedBrickFailsFast) {
  ScrubFixture fx;
  QuarantineSet quarantine;
  fx.RotBrick();
  ndp::ScrubVndObject(fx.gateway(), kKey, quarantine);

  const io::VndReader reader(fx.gateway().Open(kKey));
  ndp::BrickedSelectStats stats;
  const std::uint64_t rereads_before = Counter("brick_reread_total");
  // Still corrupt at rest: the skip rung's verified read fails without
  // burning the read+CRC-fail+re-read cycle on known-bad bytes.
  EXPECT_THROW(ndp::SelectInterestingPointsBricked(reader, kArray, kIsos,
                                                   &stats, nullptr,
                                                   &quarantine, kKey),
               CorruptDataError);
  EXPECT_EQ(Counter("brick_reread_total"), rereads_before);
}

TEST(ClusterHealth, ScrubStatusSurfacesInHealth) {
  bench_util::ClusterTestbedConfig config;
  config.servers = 1;
  config.replicas = 1;
  bench_util::ClusterTestbed cluster(config);
  sim::ImpactConfig cfg;
  cfg.n = 16;
  const grid::Dataset ds = sim::GenerateImpactTimestep(cfg, 24006, {kArray});
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec("lz4"));
  writer.SetBrickSize(8);
  writer.WriteToStore(cluster.store(), cluster.bucket(), kKey);

  const std::shared_ptr<ndp::NdpClient> probe = cluster.NewNodeClient(0);
  cluster.scrubber(0).RunPassNow();
  const auto health = probe->Health();
  ASSERT_TRUE(health.scrub_present);
  EXPECT_EQ(health.scrub_passes, 1u);
  EXPECT_GT(health.scrub_bricks_checked, 0u);
  EXPECT_EQ(health.scrub_quarantined, 0u);
}

TEST(ClusterQuarantine, SurvivesNodeRestart) {
  bench_util::ClusterTestbedConfig config;
  config.servers = 1;
  config.replicas = 1;
  bench_util::ClusterTestbed cluster(config);
  cluster.quarantine(0).Add({"k", "a", 7});
  cluster.KillServer(0);
  cluster.RestartServer(0);
  // The fresh incarnation still knows the brick was bad at rest — a
  // reboot does not reset what the disk contains.
  EXPECT_TRUE(cluster.quarantine(0).Contains("k", "a", 7));
}

}  // namespace
}  // namespace vizndp::storage
