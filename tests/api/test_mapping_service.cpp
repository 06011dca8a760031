// The mapping_service determinism contract: batch results are bit-identical
// to direct sequential tool calls on any worker count and under any
// submission order; observers see ordered per-job events; the fleet store
// is consulted and persisted as documented; daemon mode serves a FIFO feed
// against the live store and streams one JSON record per job.
#include "api/mapping_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <regex>
#include <string>
#include <vector>

#include <unistd.h>

#include "baselines/drama.h"
#include "baselines/xiao.h"
#include "core/dramdig.h"
#include "core/environment.h"
#include "dram/presets.h"
#include "store/mapping_store.h"
#include "store/verify.h"
#include "sysinfo/system_info.h"
#include "util/expect.h"
#include "util/gf2.h"
#include "util/heap.h"
#include "util/json.h"
#include "util/log.h"

namespace dramdig::api {
namespace {

baselines::drama_config fast_drama() {
  baselines::drama_config cfg{};
  cfg.pool_size = 2000;
  cfg.calibration_pairs = 300;
  cfg.max_trials = 6;
  return cfg;
}

/// Everything deterministic about an outcome (wall time excluded) in one
/// comparable string: the JSON already serializes the full result schema.
std::string outcome_key(const job_outcome& outcome) {
  return std::to_string(static_cast<int>(outcome.state)) + "|" +
         outcome.result.to_json_string();
}

/// The reference batch for the determinism tests: DRAMDig on three paper
/// machines plus one DRAMA and one Xiao job, mixed seeds.
std::vector<job_spec> reference_jobs() {
  std::vector<job_spec> jobs;
  for (int machine : {1, 4, 7}) {
    jobs.push_back({dram::machine_by_number(machine), "dramdig", {},
                    static_cast<std::uint64_t>(40 + machine)});
  }
  jobs.push_back({dram::machine_by_number(1), "drama",
                  tool_options{}.with_drama(fast_drama()), 5});
  jobs.push_back({dram::machine_by_number(4), "xiao", {}, 7});
  return jobs;
}

TEST(MappingService, ResultsBitIdenticalAcrossThreadCounts) {
  const std::vector<job_spec> jobs = reference_jobs();
  const auto baseline = mapping_service({.threads = 1}).run(jobs);
  for (unsigned threads : {2u, 8u}) {
    const auto outcomes = mapping_service({.threads = threads}).run(jobs);
    ASSERT_EQ(outcomes.size(), baseline.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      EXPECT_EQ(outcome_key(outcomes[i]), outcome_key(baseline[i]))
          << "job " << i << " diverged at threads=" << threads;
    }
  }
}

TEST(MappingService, ResultsInvariantUnderShuffledSubmissionOrder) {
  const std::vector<job_spec> jobs = reference_jobs();
  const auto baseline = mapping_service({.threads = 4}).run(jobs);
  // A deterministic permutation (reversal) keeps the test reproducible.
  std::vector<job_spec> shuffled(jobs.rbegin(), jobs.rend());
  const auto outcomes = mapping_service({.threads = 4}).run(shuffled);
  ASSERT_EQ(outcomes.size(), baseline.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(outcome_key(outcomes[jobs.size() - 1 - i]),
              outcome_key(baseline[i]))
        << "job " << i << " depends on its batch position";
  }
}

TEST(MappingService, MatchesDirectSequentialToolCalls) {
  // The acceptance pin: service output must be bit-identical to calling
  // each concrete tool directly, for all three tools — the same record,
  // which the service only grades (`verified`).
  const std::vector<job_spec> jobs = reference_jobs();
  const auto outcomes = mapping_service({.threads = 8}).run(jobs);

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const job_spec& job = jobs[i];
    core::environment env(job.machine, job.seed);
    tool_result direct =
        job.tool == "dramdig"
            ? core::dramdig_tool(env, job.options.dramdig()).run()
        : job.tool == "drama"
            ? baselines::drama_tool(env, job.options.drama()).run()
            : baselines::xiao_tool(env, job.options.xiao()).run();
    ASSERT_EQ(outcomes[i].state, job_state::completed);
    EXPECT_FALSE(direct.verified) << job.tool;
    EXPECT_TRUE(outcomes[i].result.verified) << job.tool;
    direct.verified = outcomes[i].result.verified;
    EXPECT_EQ(outcomes[i].result.to_json_string(), direct.to_json_string())
        << "job " << i << " (" << job.tool << ")";
  }
}

TEST(MappingService, UnknownToolFailsTheBatchUpFront) {
  std::vector<job_spec> jobs{
      {dram::machine_by_number(4), "seaborn", {}, 1}};
  EXPECT_THROW((void)mapping_service().run(jobs), contract_violation);
  // The daemon feed checks the same closed tool set at push time.
  job_feed feed;
  EXPECT_THROW((void)feed.push(jobs.front()), contract_violation);
}

TEST(MappingService, JobExceptionMarksOnlyThatJobFailed) {
  // A malformed machine spec trips a contract inside the worker; the job
  // fails, the batch survives, and the healthy job is untouched.
  dram::machine_spec broken = dram::machine_by_number(4);
  broken.memory_bytes = 0;
  std::vector<job_spec> jobs{{broken, "dramdig", {}, 1},
                             {dram::machine_by_number(4), "dramdig", {}, 42}};
  const auto outcomes = mapping_service({.threads = 2}).run(jobs);
  EXPECT_EQ(outcomes[0].state, job_state::failed);
  EXPECT_FALSE(outcomes[0].result.failure_reason.empty());
  EXPECT_EQ(outcomes[1].state, job_state::completed);
  EXPECT_TRUE(outcomes[1].result.verified);
}

/// Records the event stream of a batch.
class recording_observer final : public progress_observer {
 public:
  void on_job_start(std::size_t index, const job_spec&) override {
    events.push_back("start:" + std::to_string(index));
  }
  void on_job_phase(std::size_t index, std::string_view phase,
                    const core::phase_stats& delta) override {
    events.push_back("phase:" + std::to_string(index) + ":" +
                     std::string(phase));
    measurements += delta.measurements;
  }
  void on_job_done(std::size_t index, const job_outcome& outcome) override {
    const char* state =
        outcome.state == job_state::completed ? "completed" : "failed";
    events.push_back("done:" + std::to_string(index) + ":" + state);
  }

  std::vector<std::string> events;
  std::uint64_t measurements = 0;
};

TEST(MappingService, ObserverSeesOrderedPhaseEvents) {
  std::vector<job_spec> jobs{
      {dram::machine_by_number(4), "dramdig", {}, 42}};
  recording_observer observer;
  const auto outcomes = mapping_service({.threads = 1}).run(jobs, &observer);
  ASSERT_GE(observer.events.size(), 3u);
  EXPECT_EQ(observer.events.front(), "start:0");
  EXPECT_EQ(observer.events.back(), "done:0:completed");
  // The pipeline phases stream through (replacing the old ad-hoc timing
  // log): at least calibration, coarse, selection, partition, fine.
  for (const char* phase :
       {"phase:0:calibration", "phase:0:coarse", "phase:0:selection",
        "phase:0:partition", "phase:0:fine"}) {
    EXPECT_NE(std::find(observer.events.begin(), observer.events.end(), phase),
              observer.events.end())
        << phase;
  }
  // Phase deltas add up to the run's metered total.
  EXPECT_EQ(observer.measurements, outcomes[0].result.measurement_count);
}

TEST(MappingService, DramaStreamsPerTrialEvents) {
  // DRAMA used to emit one terminal event; a driver watching a job now
  // sees every trial land, and the trial deltas sum to the exact totals.
  std::vector<job_spec> jobs{{dram::machine_by_number(1), "drama",
                              tool_options{}.with_drama(fast_drama()), 5}};
  recording_observer observer;
  const auto outcomes = mapping_service({.threads = 1}).run(jobs, &observer);
  ASSERT_EQ(outcomes[0].state, job_state::completed);
  const auto trial_events =
      std::count(observer.events.begin(), observer.events.end(),
                 "phase:0:trial");
  EXPECT_GE(trial_events, 2);  // agreement needs two valid trials minimum
  EXPECT_EQ(observer.measurements, outcomes[0].result.measurement_count);
}

TEST(MappingService, DramDigStreamsDesignedProbeRounds) {
  // The bit-probe engine's rounds ride the same observer stream; their
  // cost is metered by the owning coarse/fine phase events, so the
  // measurement sum stays exact (checked by ObserverSeesOrderedPhaseEvents).
  std::vector<job_spec> jobs{{dram::machine_by_number(4), "dramdig", {}, 42}};
  recording_observer observer;
  const auto outcomes = mapping_service({.threads = 1}).run(jobs, &observer);
  ASSERT_EQ(outcomes[0].state, job_state::completed);
  const auto row_rounds =
      std::count(observer.events.begin(), observer.events.end(),
                 "phase:0:probe:coarse.row");
  const auto col_rounds =
      std::count(observer.events.begin(), observer.events.end(),
                 "phase:0:probe:coarse.col");
  EXPECT_GE(row_rounds, 4);  // majority of 7 needs at least 4 rounds
  EXPECT_LE(row_rounds, 7);
  EXPECT_GE(col_rounds, 4);
  EXPECT_GT(outcomes[0].result.probe_rounds.votes_saved, 0u);
}

TEST(MappingService, XiaoStreamsPerStageEvents) {
  // Xiao used to emit one terminal "scan" event after the fact; a driver
  // watching a job now sees each stage land as it completes, and the
  // stage deltas sum to the exact metered totals.
  std::vector<job_spec> jobs{{dram::machine_by_number(4), "xiao", {}, 7}};
  recording_observer observer;
  const auto outcomes = mapping_service({.threads = 1}).run(jobs, &observer);
  ASSERT_EQ(outcomes[0].state, job_state::completed);
  for (const char* phase : {"phase:0:calibration", "phase:0:template"}) {
    EXPECT_NE(std::find(observer.events.begin(), observer.events.end(), phase),
              observer.events.end())
        << phase;
  }
  EXPECT_EQ(observer.measurements, outcomes[0].result.measurement_count);
}

/// Resident set size in bytes, from /proc/self/statm (0 when unreadable).
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t total_pages = 0;
  std::size_t resident_pages = 0;
  if (!(statm >> total_pages >> resident_pages)) return 0;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(MappingService, RunLeavesNoFreedHeapResident) {
  if (resident_bytes() == 0) GTEST_SKIP() << "no /proc/self/statm";
  // Two workers over several recoveries spread the jobs' tables across
  // pool threads' malloc arenas. run() releases them before returning, so
  // a second release finds next to nothing left to give back.
  std::vector<job_spec> jobs;
  for (int machine : {1, 4, 5, 7, 9}) {
    for (std::uint64_t seed : {1u, 2u}) {
      jobs.push_back({dram::machine_by_number(machine), "dramdig", {}, seed});
    }
  }
  const auto outcomes = mapping_service({.threads = 2}).run(jobs);
  for (const job_outcome& o : outcomes) {
    ASSERT_EQ(o.state, job_state::completed);
  }
  const std::size_t after_run = resident_bytes();
  release_free_heap();
  const std::size_t after_release = resident_bytes();
  EXPECT_LT(after_run - std::min(after_run, after_release),
            std::size_t{1} << 20);
}

// --- fleet mapping store integration ----------------------------------------

/// One dramdig job for a machine, seed pinned so results compare exactly.
job_spec fleet_job(const dram::machine_spec& machine,
                   std::uint64_t seed = 42) {
  return {machine, "dramdig", {}, seed};
}

TEST(MappingServiceStore, ColdRunSeedsStoreSecondRunVerifies) {
  store::mapping_store store;
  mapping_service service({.threads = 1, .store = &store});
  const dram::machine_spec& m = dram::machine_by_number(1);

  const auto cold = service.run({fleet_job(m)});
  ASSERT_EQ(cold[0].state, job_state::completed);
  EXPECT_EQ(cold[0].store_hit, "cold");
  EXPECT_TRUE(cold[0].result.verified);
  ASSERT_EQ(store.size(), 1u);

  const auto warm = service.run({fleet_job(m)});
  ASSERT_EQ(warm[0].state, job_state::completed);
  EXPECT_EQ(warm[0].store_hit, "verify");
  EXPECT_TRUE(warm[0].result.success);
  EXPECT_TRUE(warm[0].result.verified);
  EXPECT_EQ(warm[0].result.outcome, "verified");
  // Bit-identical mapping at a fraction of the cost: the acceptance
  // criterion pins >=80% fewer measurements on verification-only hits.
  ASSERT_TRUE(cold[0].result.mapping && warm[0].result.mapping);
  EXPECT_EQ(warm[0].result.mapping->describe(),
            cold[0].result.mapping->describe());
  EXPECT_LE(warm[0].result.measurement_count,
            cold[0].result.measurement_count / 5);
  // The entry's history now records the confirmation.
  const auto entry = store.find_exact(sysinfo::fingerprint(m));
  ASSERT_TRUE(entry);
  ASSERT_EQ(entry->history.size(), 2u);
  EXPECT_EQ(entry->history[0].kind, "recovered");
  EXPECT_EQ(entry->history[1].kind, "verified");
}

TEST(MappingServiceStore, PoisonedEntryRequeuesAsFullRecoveryAndOverwrites) {
  const dram::machine_spec& m = dram::machine_by_number(1);
  store::mapping_store store;
  // Seed the store with a poisoned entry: right fingerprint, one wrong
  // bank-function mask, (16,19) -> (16,20). The claim is still a
  // bijection with the right counts, so only the designed probes refute it.
  store::store_entry poisoned;
  {
    mapping_service seeder({.threads = 1, .store = &store});
    (void)seeder.run({fleet_job(m)});
    poisoned = *store.find_exact(sysinfo::fingerprint(m));
    poisoned.bank_functions.back() = (1ull << 16) ^ (1ull << 20);
    ASSERT_TRUE(poisoned.mapping().is_bijective());
    store.put(poisoned);
  }

  mapping_service service({.threads = 1, .store = &store});
  const auto outcomes = service.run({fleet_job(m)});
  ASSERT_EQ(outcomes[0].state, job_state::completed);
  EXPECT_EQ(outcomes[0].store_hit, "requeued");
  EXPECT_TRUE(outcomes[0].result.verified);

  // The job pays for the refuted verification: it leads the record as a
  // "verify" phase and is in the totals. The verifier is deterministic, so
  // a direct call on a fresh environment gives its exact cost.
  core::environment verify_env(m, 42);
  const store::verify_report vr =
      store::verify_stored_mapping(verify_env, poisoned);
  ASSERT_FALSE(vr.verified);
  ASSERT_GT(vr.totals.measurements, 0u);
  const tool_result& result = outcomes[0].result;
  ASSERT_FALSE(result.phases.empty());
  EXPECT_EQ(result.phases.front().name, "verify");
  EXPECT_EQ(result.phases.front().seconds, vr.totals.seconds);
  EXPECT_EQ(result.phases.front().measurements, vr.totals.measurements);

  // The re-run itself is bit-identical to a storeless cold run (fresh
  // environment, no hints): every other field equals the cold record, and
  // the totals are the cold run's plus the verification's.
  const auto reference = mapping_service({.threads = 1}).run({fleet_job(m)});
  const tool_result& cold = reference[0].result;
  EXPECT_EQ(result.virtual_seconds, cold.virtual_seconds + vr.totals.seconds);
  EXPECT_EQ(result.measurement_count,
            cold.measurement_count + vr.totals.measurements);
  EXPECT_EQ(result.access_count, cold.access_count + vr.totals.accesses);
  tool_result rerun = result;
  rerun.phases.erase(rerun.phases.begin());
  rerun.virtual_seconds = cold.virtual_seconds;
  rerun.measurement_count = cold.measurement_count;
  rerun.access_count = cold.access_count;
  EXPECT_EQ(rerun.to_json_string(), cold.to_json_string());

  // The poisoned entry is overwritten with the true functions plus an
  // audit trail of the refutation; each event counts its own cost.
  const auto entry = store.find_exact(sysinfo::fingerprint(m));
  ASSERT_TRUE(entry);
  EXPECT_EQ(entry->bank_functions, cold.mapping->bank_functions());
  ASSERT_GE(entry->history.size(), 2u);
  const store::verification_event& failed =
      entry->history[entry->history.size() - 2];
  EXPECT_EQ(failed.kind, "verify_failed");
  EXPECT_EQ(failed.measurements, vr.totals.measurements);
  EXPECT_EQ(entry->history.back().kind, "recovered");
  EXPECT_EQ(entry->history.back().measurements, cold.measurement_count);
}

TEST(MappingServiceStore, GeometrySiblingWarmStartsFullRecovery) {
  const dram::machine_spec& m = dram::machine_by_number(1);
  store::mapping_store store;
  mapping_service service({.threads = 1, .store = &store});
  (void)service.run({fleet_job(m)});

  dram::machine_spec sibling = m;
  sibling.cpu_model = "i5-2500";  // same board geometry, different CPU
  const auto outcomes = service.run({fleet_job(sibling)});
  ASSERT_EQ(outcomes[0].state, job_state::completed);
  EXPECT_EQ(outcomes[0].store_hit, "warm");
  EXPECT_TRUE(outcomes[0].result.success);
  EXPECT_TRUE(outcomes[0].result.verified);
  // The sibling's recovery lands as its own entry.
  EXPECT_EQ(store.size(), 2u);
  const auto entry = store.find_exact(sysinfo::fingerprint(sibling));
  ASSERT_TRUE(entry);
  ASSERT_EQ(entry->history.size(), 1u);
  EXPECT_EQ(entry->history[0].kind, "warm_recovered");
}

TEST(MappingServiceStore, ColdRunPersistsEvidenceAndSiblingWarmStartHalves) {
  const dram::machine_spec& m = dram::machine_by_number(1);
  store::mapping_store store;
  mapping_service service({.threads = 1, .store = &store});

  const auto cold = service.run({fleet_job(m)});
  ASSERT_EQ(cold[0].state, job_state::completed);
  // Schema-v2 evidence lands on the entry: the resolved bank count and
  // the calibrated threshold travel with the mapping.
  const auto entry = store.find_exact(sysinfo::fingerprint(m));
  ASSERT_TRUE(entry);
  EXPECT_EQ(entry->bank_count, cold[0].result.assumed_bank_count);
  EXPECT_GT(entry->bank_count, 0u);
  EXPECT_EQ(entry->threshold_ns, cold[0].result.threshold_ns);
  EXPECT_GT(entry->threshold_ns, 0.0);

  // A geometry sibling consuming that evidence must beat the cold run by
  // >=50% measurements (the CI floor; No.1 is the fleet's worst case)
  // while recovering a bit-identical mapping.
  dram::machine_spec sibling = m;
  sibling.cpu_model = "i5-2500";
  const auto warm = service.run({fleet_job(sibling)});
  ASSERT_EQ(warm[0].state, job_state::completed);
  EXPECT_EQ(warm[0].store_hit, "warm");
  EXPECT_TRUE(warm[0].result.verified);
  ASSERT_TRUE(cold[0].result.mapping && warm[0].result.mapping);
  EXPECT_EQ(warm[0].result.mapping->describe(),
            cold[0].result.mapping->describe());
  EXPECT_LE(warm[0].result.measurement_count,
            cold[0].result.measurement_count / 2);
}

TEST(MappingServiceStore, StoredSpanKeyNeverReachesAWarmRun) {
  // Logs written before the mapping became an entry's one claim carry a
  // "function_span" key beside each record's mapping, and the fingerprint
  // hashes do not cover it. A record whose span contradicts its bank
  // functions must warm-start a geometry sibling exactly as a consistent
  // record does: the run derives the span from the stored functions.
  const dram::machine_spec& m = dram::machine_by_number(6);
  const std::string path = testing::TempDir() + "dramdig_service_span.json";
  std::remove(path.c_str());
  {
    store::mapping_store store(path);
    mapping_service seeder({.threads = 1, .store = &store});
    ASSERT_EQ(seeder.run({fleet_job(m)})[0].store_hit, "cold");
  }
  const std::string log = read_file(path);
  const auto entry =
      store::mapping_store(path).find_exact(sysinfo::fingerprint(m));
  ASSERT_TRUE(entry);
  // The log with its record's span key set to `span`.
  const auto with_span = [&](const gf2::matrix& span) {
    std::string out = std::regex_replace(
        log, std::regex(R"("function_span": \[[^\]]*\], )"), "");
    std::string key = "\"function_span\": [";
    for (std::size_t i = 0; i < span.size(); ++i) {
      key += (i == 0 ? "" : ", ") + std::to_string(span[i]);
    }
    key += "], ";
    const std::size_t evidence = out.find("\"evidence\": {");
    EXPECT_NE(evidence, std::string::npos);
    out.insert(evidence, key);
    return out;
  };
  const gf2::matrix consistent = gf2::row_echelon(entry->bank_functions);
  gf2::matrix mismatched = consistent;
  mismatched.front() ^= mismatched.front() & (~mismatched.front() + 1);
  ASSERT_FALSE(gf2::same_span(mismatched, consistent));

  dram::machine_spec sibling = m;
  sibling.cpu_model = "i7-6700";  // same board geometry, different CPU
  std::vector<std::string> records;
  for (const gf2::matrix& span : {consistent, mismatched}) {
    write_file(path, with_span(span));
    store::mapping_store store(path);
    EXPECT_TRUE(store.load_warning().empty());
    mapping_service service({.threads = 1, .store = &store});
    const auto outcomes = service.run({fleet_job(sibling)});
    ASSERT_EQ(outcomes[0].store_hit, "warm");
    EXPECT_TRUE(outcomes[0].result.verified);
    records.push_back(outcomes[0].result.to_json_string());
  }
  EXPECT_EQ(records[1], records[0]);
  std::remove(path.c_str());
}

TEST(MappingServiceStore, PoisonedWarmPriorStillConvergesViaVerification) {
  // A geometry hit whose stored evidence is wrong in every dimension the
  // warm path consumes: masks, bit classification, bank count, threshold.
  // Every warm assignment is still strict-verified, so the run must
  // degrade in place (advisory prior, no re-queue) and converge to the
  // true mapping — a poisoned prior can cost measurements, never the
  // mapping.
  const dram::machine_spec& m = dram::machine_by_number(1);
  store::mapping_store store;
  mapping_service seeder({.threads = 1, .store = &store});
  (void)seeder.run({fleet_job(m)});
  auto entry = *store.find_exact(sysinfo::fingerprint(m));
  entry.bank_functions.back() = (1ull << 20) ^ (1ull << 24);
  std::swap(entry.row_bits, entry.column_bits);
  entry.bank_count = entry.bank_count == 8 ? 64 : 8;
  entry.threshold_ns *= 3.0;
  store.put(std::move(entry));

  dram::machine_spec sibling = m;
  sibling.cpu_model = "i5-2500";
  mapping_service service({.threads = 1, .store = &store});
  const auto outcomes = service.run({fleet_job(sibling)});
  ASSERT_EQ(outcomes[0].state, job_state::completed);
  EXPECT_EQ(outcomes[0].store_hit, "warm");
  EXPECT_TRUE(outcomes[0].result.success);
  EXPECT_TRUE(outcomes[0].result.verified);
  // Identical to what a cold recovery of the sibling finds.
  const auto reference =
      mapping_service({.threads = 1}).run({fleet_job(sibling)});
  ASSERT_TRUE(outcomes[0].result.mapping && reference[0].result.mapping);
  EXPECT_EQ(outcomes[0].result.mapping->describe(),
            reference[0].result.mapping->describe());
}

TEST(MappingServiceStore, VerifyHistoryKeepsTheNewestEvents) {
  // A fleet re-verifies one entry on every job: its history keeps the
  // newest kHistoryLimit events, so the entry's record stops growing.
  store::mapping_store store;
  mapping_service service({.threads = 1, .store = &store});
  const dram::machine_spec& m = dram::machine_by_number(1);
  ASSERT_EQ(service.run({fleet_job(m)})[0].store_hit, "cold");
  for (std::uint64_t seed = 101; seed <= 112; ++seed) {
    const auto verify = service.run({{m, "dramdig", {}, seed}});
    ASSERT_EQ(verify[0].store_hit, "verify") << seed;
    ASSERT_LE(store.find_exact(sysinfo::fingerprint(m))->history.size(),
              store::kHistoryLimit);
  }
  const auto entry = store.find_exact(sysinfo::fingerprint(m));
  ASSERT_TRUE(entry);
  ASSERT_EQ(entry->history.size(), 8u);
  for (std::size_t i = 0; i < entry->history.size(); ++i) {
    EXPECT_EQ(entry->history[i].kind, "verified");
    EXPECT_EQ(entry->history[i].seed, 105 + i);  // oldest first
  }
}

TEST(MappingServiceStore, NonDramdigJobsBypassTheStore) {
  store::mapping_store store;
  mapping_service service({.threads = 1, .store = &store});
  const auto outcomes = service.run(
      {{dram::machine_by_number(1), "drama",
        tool_options{}.with_drama(fast_drama()), 5}});
  ASSERT_EQ(outcomes[0].state, job_state::completed);
  EXPECT_TRUE(outcomes[0].store_hit.empty());
  EXPECT_EQ(store.size(), 0u);
}

TEST(MappingServiceStore, FailedSaveReachesRunAndServeCallers) {
  // A store whose directory does not exist loads empty without a warning
  // and fails every save. Persistence stays best-effort, so each result
  // stands, but the jobs whose update the save lost carry its error.
  const dram::machine_spec& m = dram::machine_by_number(1);
  const std::string path = "/nonexistent/dir/s.json";
  store::mapping_store store(path);
  ASSERT_TRUE(store.load_warning().empty());
  mapping_service service({.threads = 1, .store = &store});

  const auto outcomes = service.run(
      {fleet_job(m), {m, "drama", tool_options{}.with_drama(fast_drama()), 5}});
  ASSERT_EQ(outcomes[0].state, job_state::completed);
  EXPECT_TRUE(outcomes[0].result.verified);
  EXPECT_NE(outcomes[0].store_error.find(path), std::string::npos)
      << outcomes[0].store_error;
  EXPECT_TRUE(outcomes[1].store_error.empty());  // DRAMA puts nothing
  EXPECT_EQ(store.size(), 1u);  // the in-memory store kept the entry

  job_feed feed;
  (void)feed.push(fleet_job(m));                           // verify
  (void)feed.push(fleet_job(dram::machine_by_number(4)));  // cold
  feed.close();
  std::vector<served_outcome> records;
  ASSERT_EQ(service.serve(feed, [&](const served_outcome& out) {
              records.push_back(out);
            }),
            2u);
  for (const served_outcome& record : records) {
    EXPECT_EQ(record.outcome.state, job_state::completed);
    EXPECT_NE(record.outcome.store_error.find(path), std::string::npos);
    const json_value doc = json_value::parse(record.json);
    EXPECT_EQ(doc.at("store_error").as_string(), record.outcome.store_error);
  }
  EXPECT_EQ(store.size(), 2u);
}

TEST(MappingServiceStore, BatchThatPutsNothingDoesNotRewriteTheFile) {
  // No job updated the store (a DRAMA-only batch), so there is nothing
  // to save: even the corrupt file a failed load left stays byte for byte
  // until a batch does put an entry. The log's middle record is damaged
  // (a complete line that does not parse), which degrades the store to
  // empty.
  const std::string path =
      testing::TempDir() + "dramdig_service_skip_save.json";
  const std::string damaged =
      "{\"store\": \"dramdig-mapping-store\", \"version\": 3}\n"
      "{\"fingerprint\": {\"cpu_model\": \"i5-24\n"
      "{}\n";
  write_file(path, damaged);
  store::mapping_store store(path);
  ASSERT_FALSE(store.load_warning().empty());
  ASSERT_EQ(store.size(), 0u);
  mapping_service service({.threads = 1, .store = &store});
  (void)service.run({{dram::machine_by_number(1), "drama",
                      tool_options{}.with_drama(fast_drama()), 5}});
  EXPECT_EQ(read_file(path), damaged);

  const auto saved = service.run({fleet_job(dram::machine_by_number(1))});
  EXPECT_TRUE(saved[0].store_error.empty()) << saved[0].store_error;
  const store::mapping_store reloaded(path);
  EXPECT_TRUE(reloaded.load_warning().empty());
  EXPECT_EQ(reloaded.size(), 1u);
  std::remove(path.c_str());
}

TEST(MappingServiceStore, BatchLookupsSnapshotStoreAtEntry) {
  // Two jobs for the same machine in ONE batch: both must plan cold (the
  // store is consulted at run() entry, so outcome[i] cannot depend on a
  // sibling job finishing first), and the post-batch updates collapse to
  // one entry.
  const dram::machine_spec& m = dram::machine_by_number(1);
  store::mapping_store store;
  mapping_service service({.threads = 2, .store = &store});
  const auto outcomes = service.run({fleet_job(m), fleet_job(m)});
  EXPECT_EQ(outcomes[0].store_hit, "cold");
  EXPECT_EQ(outcomes[1].store_hit, "cold");
  EXPECT_EQ(outcomes[0].result.to_json_string(),
            outcomes[1].result.to_json_string());
  EXPECT_EQ(store.size(), 1u);
}

// --- daemon mode -------------------------------------------------------------

TEST(JobFeed, PopsInPushOrder) {
  // With a live store, a job's cold/warm/verify verdict depends on which
  // jobs ran before it, so the feed must serve in push order.
  job_feed feed;
  std::vector<std::uint64_t> pushed;
  for (int n = 1; n <= 4; ++n) {
    pushed.push_back(feed.push({dram::machine_by_number(n), "dramdig", {},
                                static_cast<std::uint64_t>(n)}));
  }
  feed.close();
  for (const std::uint64_t ticket : pushed) EXPECT_NE(ticket, 0u);
  std::vector<std::uint64_t> served_tickets;
  mapping_service service({.threads = 1});
  const std::size_t n = service.serve(feed, [&](const served_outcome& out) {
    served_tickets.push_back(out.ticket);
  });
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(served_tickets, pushed);
}

TEST(JobFeed, PushAfterCloseIsDroppedWithWarning) {
  job_feed feed;
  feed.close();
  // The drop is deliberate (racing producers degrade instead of
  // throwing), but it must not be silent: a warning names the job that
  // never ran.
  std::vector<std::string> warnings;
  set_log_sink([&](log_level level, const std::string& message) {
    if (level == log_level::warn) warnings.push_back(message);
  });
  EXPECT_EQ(feed.push({dram::machine_by_number(1), "dramdig", {}, 1}), 0u);
  set_log_sink({});
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("No.1"), std::string::npos) << warnings[0];
  EXPECT_NE(warnings[0].find("dramdig"), std::string::npos) << warnings[0];
  // Nothing was queued: a serve() on the closed feed returns immediately
  // with nothing.
  mapping_service service({.threads = 1});
  EXPECT_EQ(service.serve(feed, {}), 0u);
}

TEST(MappingServiceServe, StreamsJsonRecordsAndWarmStartsLive) {
  // Daemon mode consults the LIVE store: with one worker, the second job
  // for the same machine (queued before serve even starts) must see the
  // first job's recovery and become a verification-only hit — the
  // incremental warm start run() deliberately forgoes.
  const dram::machine_spec& m = dram::machine_by_number(1);
  store::mapping_store store;
  mapping_service service({.threads = 1, .store = &store});
  job_feed feed;
  (void)feed.push(fleet_job(m));
  (void)feed.push(fleet_job(m));
  feed.close();

  std::vector<served_outcome> records;
  const std::size_t n = service.serve(
      feed, [&](const served_outcome& out) { records.push_back(out); });
  ASSERT_EQ(n, 2u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].outcome.store_hit, "cold");
  EXPECT_EQ(records[1].outcome.store_hit, "verify");
  EXPECT_EQ(records[0].outcome.result.mapping->describe(),
            records[1].outcome.result.mapping->describe());

  // Each streamed record is one parseable, self-contained JSON object
  // with a fixed key list.
  const std::vector<std::string> keys{
      "ticket",    "machine",     "tool",         "seed",  "state",
      "store_hit", "store_error", "wall_seconds", "result"};
  for (const served_outcome& record : records) {
    const json_value doc = json_value::parse(record.json);
    std::vector<std::string> got;
    for (const auto& [key, value] : doc.members()) got.push_back(key);
    EXPECT_EQ(got, keys);
    EXPECT_EQ(doc.at("ticket").as_u64(), record.ticket);
    EXPECT_EQ(doc.at("machine").as_i64(), m.number);
    EXPECT_EQ(doc.at("tool").as_string(), "dramdig");
    EXPECT_EQ(doc.at("state").as_string(), "completed");
    EXPECT_EQ(doc.at("store_hit").as_string(), record.outcome.store_hit);
    EXPECT_TRUE(doc.at("result").at("success").as_bool());
  }
}

TEST(MappingServiceServe, ConcurrentWorkersSaveAConsistentDocument) {
  // Four workers put and save concurrently; each put renders its entry
  // record outside the store lock. The file holds appended records, so a
  // reload must replay them into exactly the in-memory store.
  const std::string path =
      testing::TempDir() + "dramdig_service_concurrent.json";
  std::remove(path.c_str());
  store::mapping_store store(path);
  mapping_service service({.threads = 4, .store = &store});
  job_feed feed;
  for (int round = 0; round < 2; ++round) {
    for (int n = 1; n <= 9; ++n) {
      (void)feed.push(fleet_job(dram::machine_by_number(n),
                                static_cast<std::uint64_t>(40 + round)));
    }
  }
  feed.close();
  std::vector<served_outcome> records;
  EXPECT_EQ(service.serve(feed, [&](const served_outcome& out) {
              records.push_back(out);
            }),
            18u);
  for (const served_outcome& record : records) {
    EXPECT_TRUE(record.outcome.store_error.empty());
    EXPECT_EQ(json_value::parse(record.json).at("store_error").as_string(),
              "");
  }
  EXPECT_EQ(store.size(), 9u);
  const store::mapping_store reloaded(path);
  EXPECT_TRUE(reloaded.load_warning().empty());
  EXPECT_EQ(reloaded.to_json(), store.to_json());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dramdig::api
