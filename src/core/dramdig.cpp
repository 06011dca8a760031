#include "core/dramdig.h"

#include <algorithm>
#include <cstdio>

#include "core/classifier.h"
#include "core/probe_util.h"
#include "sysinfo/system_info.h"
#include "util/bitops.h"
#include "util/expect.h"
#include "util/log.h"

namespace dramdig::core {

namespace {

/// Calibration budget of a recovery run (rounds per measurement, pair
/// ceiling); the adaptive stop usually ends calibration well short of it.
constexpr timing::channel_config kChannel{.rounds_per_measurement = 1000,
                                          .calibration_pairs = 1500};

/// The default phase consumer: the per-phase narration examples enable at
/// info level (the service replaces it with its observer hook).
void log_phase_event(std::string_view phase, const phase_stats& delta) {
  char buf[112];
  std::snprintf(buf, sizeof buf, "dramdig phase: %.*s %.1fs/%llum",
                static_cast<int>(phase.size()), phase.data(), delta.seconds,
                static_cast<unsigned long long>(delta.measurements));
  log_info(buf);
}

}  // namespace

void check_config(const dramdig_config& config) {
  DRAMDIG_EXPECTS(config.buffer_fraction > 0.0 &&
                  config.buffer_fraction < 0.95);
  DRAMDIG_EXPECTS(config.max_attempts >= 1);
}

dramdig_tool::dramdig_tool(environment& env, dramdig_config config)
    : env_(env), config_(config) {
  check_config(config_);
}

tool_result dramdig_tool::run(const phase_callback& on_phase) {
  auto& mc = env_.mach().controller();
  // Every phase occurrence is published through one event stream (the Fig. 2
  // decomposition): observers wired in by the mapping_service see the run
  // live; without a hook the events fall back to info-level narration.
  run_meter meter(mc, on_phase ? on_phase : phase_callback(log_phase_event));
  tool_result out;
  out.tool = "dramdig";
  std::size_t pile_count = 0;
  unsigned attempts_used = 0;
  rng r(env_.seed() ^ config_.tool_seed * 0x9e3779b97f4a7c15ull);
  timing::channel channel(mc, kChannel, r.fork());
  // One measurement-reuse scheduler for the whole run: verdicts accreted
  // in any phase (or any partition attempt of the bank-count sweep) are
  // reused by every later scan. The classification engine sits on top of
  // it: its class directory (piles + row-distinct representatives)
  // survives across the bank-count sweep, so a repeat partition attempt
  // re-resolves surviving classes without measurements.
  measurement_plan plan(channel);
  bank_classifier engine(plan);
  // Fleet warm start: the stored sibling mapping's function span seeds the
  // classifier's prediction. Attempt retries clear() it, so a hint that
  // failed an attempt never poisons the next one.
  const dramdig_config::warm_hints* warm =
      config_.warm ? &*config_.warm : nullptr;
  if (warm) engine.warm_start(warm->claim.bank_functions());
  // A claim with a bank count (schema v2 evidence) is also the bit prior:
  // it seeds per-bit vote priors for the coarse passes and the fine
  // confirmations (null = cold, and a v1-era entry claims only the span).
  // Advisory per experiment — a disagreeing strict-grade vote drops the
  // prior for that bit and the standard majority decides; fine also gates
  // it on span agreement with the detected functions.
  const dram::address_mapping* prior =
      warm && warm->bank_count > 0 ? &warm->claim : nullptr;
  const unsigned warm_banks = prior ? warm->bank_count : 0;
  // The designed-experiment engine behind the coarse and fine phases: one
  // engine per run so both phases vote on one evidence substrate. Its
  // per-round progress streams through the phase-event observer when one
  // is installed (the mapping_service's hook); without an observer the
  // rounds stay silent — their cost is metered by the owning phase event.
  std::optional<bit_probe_engine> probe;
  const auto wire_probe = [&](const os::mapping_region& region) {
    probe.emplace(plan, region);
    if (on_phase) {
      probe->set_round_hook([&](const probe_round_event& e) {
        char name[64];
        std::snprintf(name, sizeof name, "probe:%.*s",
                      static_cast<int>(e.stage.size()), e.stage.data());
        phase_stats delta;
        delta.pairs_used = e.votes;
        on_phase(name, delta);
      });
    }
  };
  // The record's closing fields, filled on every exit path.
  const auto finish = [&]() {
    out.outcome = out.success ? "success" : "failed";
    out.detail = "pool " + std::to_string(out.pool_size) + ", " +
                 std::to_string(pile_count) + " piles, " +
                 std::to_string(attempts_used) + " attempt(s)";
    for (const char* name : {"calibration", "coarse", "selection",
                             "partition", "functions", "fine"}) {
      out.phases.push_back(meter.phase(name));
    }
    if (probe) out.probe_rounds = probe->stats();
    out.measurements_saved = plan.stats().measurements_saved;
    meter.finish(out);
  };

  // --- Domain knowledge ---------------------------------------------------
  // System information comes from the dmidecode/decode-dimms reports; the
  // ablation variant only trusts the memory size (always readable from
  // /proc/meminfo) and must discover the bank count by trial.
  const sysinfo::system_info info = sysinfo::probe(env_.spec());
  domain_knowledge knowledge = domain_knowledge::from_system_info(info);

  // --- Buffer + calibration ------------------------------------------------
  const os::mapping_region& buffer = env_.space().map_buffer(
      static_cast<std::uint64_t>(config_.buffer_fraction *
                                 static_cast<double>(info.total_bytes)));
  {
    run_meter::scope phase(meter, "calibration");
    const auto pool = sample_addresses(buffer, 2048, r);
    // Fleet warm start: the sibling threshold authorizes the channel's
    // prior-validated early stop (0 = none). The threshold is still
    // computed from this machine's own samples.
    out.threshold_ns = channel.calibrate(
        pool, prior ? warm->threshold_ns : 0.0);
    phase.add_pairs(channel.calibration_pairs_used());
  }
  log_info("dramdig: threshold " + std::to_string(out.threshold_ns) + "ns");

  // --- Step 1: coarse detection --------------------------------------------
  wire_probe(buffer);
  coarse_result coarse;
  {
    const run_meter::scope phase(meter, "coarse");
    coarse = run_coarse_detection(*probe, knowledge, r, prior);
  }
  if (coarse.row_bits.empty() || coarse.bank_bits.empty()) {
    out.failure_reason = "coarse detection found no usable partition of bits";
    finish();
    return out;
  }

  // --- Step 2: selection ---------------------------------------------------
  selection_result selection;
  {
    const run_meter::scope phase(meter, "selection");
    selection = select_addresses(buffer, coarse.bank_bits);
  }
  if (!selection.found) {
    out.failure_reason =
        "no physically contiguous range spans the bank bits (fragmented "
        "memory)";
    finish();
    return out;
  }
  out.pool_size = selection.pool.size();

  // Candidate bank counts: with system information there is exactly one;
  // the knowledge ablation has to sweep plausible DDR configurations.
  std::vector<unsigned> bank_count_candidates;
  if (config_.use_system_info) {
    bank_count_candidates.push_back(knowledge.total_banks);
  } else {
    // Largest first: a partition that validates against a small bank count
    // could be a coincidence of a coarse pile split, so the blind sweep
    // rules out the high counts before settling. A warm hint rotates the
    // stored count to the front — the sweep starts where the sibling
    // landed and only widens back to the blind order on refutation (a
    // failed partition/function round just falls through to the next
    // candidate).
    bank_count_candidates = {64, 32, 16, 8};
    if (warm_banks > 0) {
      const auto hint = std::find(bank_count_candidates.begin(),
                                  bank_count_candidates.end(), warm_banks);
      if (hint != bank_count_candidates.end()) {
        std::rotate(bank_count_candidates.begin(), hint, hint + 1);
      }
    }
  }

  // --- Step 2: partition + function resolving, with retries ----------------
  // A failed attempt widens the pool with known row bits before retrying:
  // varying a row bit multiplies the pool without growing the pivot's
  // same-row class, so piles move back into the acceptance window. This is
  // the practical "delta and per_threshold can be adjusted" escape hatch
  // of Section III-D, driven by knowledge instead of hand tuning.
  function_outcome functions;
  partition_outcome partition;
  unsigned assumed_banks = 0;
  std::vector<std::uint64_t> pool = selection.pool;

  // Fleet warm start, partition: subsample the pool to an exact
  // per-predicted-bank quota, with each address's bank id computed
  // host-side from the stored functions. Exact strata keep every pile
  // inside the acceptance window deterministically (plain random
  // subsampling leaves hypergeometric spread that routinely busts the
  // upper bound at 64 piles) and guarantee every bank id stays present
  // for the numbering check; picks within a stratum are random — a
  // strided pick risks coset aliasing that deflates the diff-matrix rank
  // behind null-space function detection. Wrong stored functions produce
  // wrong strata, the partition window refutes them, and the attempt
  // retry below restores the full pool (degrade in place — no re-queue).
  //
  // Quota = half the pool's own per-bank density, clamped to [8, 64]:
  // the floor matches the densest geometry the cold selector itself
  // hands partition (8 per bank on the 128/16 and 64/8 machines), so
  // function resolution is known to survive it; the cap bounds how
  // aggressive the cut gets on the 16k-address pools.
  bool pool_subsampled = false;
  if (prior != nullptr && prior->bank_functions().size() < 32 &&
      (std::size_t{1} << prior->bank_functions().size()) == warm_banks &&
      pool.size() / warm_banks >= 2 * 8) {
    const std::size_t kWarmQuota =
        std::clamp<std::size_t>(pool.size() / warm_banks / 2, 8, 64);
    const std::vector<std::uint64_t>& funcs = prior->bank_functions();
    std::vector<std::vector<std::uint64_t>> strata(warm_banks);
    for (const std::uint64_t a : pool) strata[bank_id(a, funcs)].push_back(a);
    bool quorate = true;
    for (const auto& s : strata) quorate = quorate && s.size() >= kWarmQuota;
    if (quorate) {
      std::vector<std::uint64_t> sampled;
      sampled.reserve(kWarmQuota * strata.size());
      for (auto& s : strata) {
        for (std::size_t k = 0; k < kWarmQuota; ++k) {  // partial Fisher-Yates
          std::swap(s[k], s[k + r.below(s.size() - k)]);
          sampled.push_back(s[k]);
        }
      }
      pool = std::move(sampled);
      out.pool_size = pool.size();
      pool_subsampled = true;
    }
  }

  for (unsigned attempt = 0; attempt < config_.max_attempts && !functions.success;
       ++attempt) {
    attempts_used = attempt + 1;
    if (attempt > 0) {
      // A failed attempt may mean a cached relation is wrong (a burst can
      // push a false positive through the min filter, and merges are
      // permanent): retry from fresh measurements, like the
      // pre-scheduler pipeline did. The class directory is built on those
      // merges, so it resets with the plan; the bank-count sweep below
      // still shares both within one attempt.
      plan.reset();
      engine.clear();
      if (pool_subsampled) {
        // The warm strata did not partition: the stored functions are
        // suspect for this machine. Degrade in place to the cold pool.
        pool = selection.pool;
        out.pool_size = pool.size();
        pool_subsampled = false;
      }
    }
    if (attempt > 0 && pool.size() < 32768) {
      // Extend the selection bit set by the lowest still-unused row bits.
      std::vector<unsigned> bits = coarse.bank_bits;
      for (unsigned i = 0; i < attempt && i < coarse.row_bits.size(); ++i) {
        bits.push_back(coarse.row_bits[i]);
      }
      std::sort(bits.begin(), bits.end());
      const run_meter::scope phase(meter, "selection");
      const selection_result wider = select_addresses(buffer, bits);
      if (wider.found) {
        pool = wider.pool;
        out.pool_size = pool.size();
      }
    }
    for (unsigned banks : bank_count_candidates) {
      if (pool.size() < banks * 2) continue;  // cannot resolve
      partition_outcome po;
      {
        const run_meter::scope phase(meter, "partition");
        po = engine.partition(pool, banks, r, config_.partition);
      }
      if (!po.success) continue;
      function_outcome fo;
      {
        const run_meter::scope phase(meter, "functions");
        fo = detect_functions(po.piles, coarse.bank_bits, banks, mc.clock());
      }
      if (fo.success) {
        functions = fo;
        partition = std::move(po);
        assumed_banks = banks;
        break;
      }
    }
  }
  if (!functions.success) {
    out.failure_reason = functions.failure_reason.empty()
                             ? "partition never stabilized"
                             : functions.failure_reason;
    finish();
    return out;
  }
  pile_count = partition.piles.size();
  out.assumed_bank_count = assumed_banks;

  // --- Step 3: fine-grained detection --------------------------------------
  fine_outcome fine;
  if (config_.use_spec_counts) {
    const run_meter::scope phase(meter, "fine");
    fine = run_fine_detection(*probe, knowledge, coarse, functions.functions,
                              r, prior);
  } else {
    // Spec-count ablation: no way to know how many shared bits remain; the
    // coarse classification is all the tool can report.
    fine.row_bits = coarse.row_bits;
    fine.column_bits = coarse.column_bits;
    fine.counts_satisfied = false;
  }

  // --- Assemble + validate --------------------------------------------------
  dram::address_mapping hypothesis(functions.functions, fine.row_bits,
                                   fine.column_bits, knowledge.address_bits);
  const bool bijective = hypothesis.is_bijective();
  out.mapping = std::move(hypothesis);
  out.success = bijective && functions.numbering_ok &&
                (!config_.use_spec_counts || fine.counts_satisfied);
  if (!out.success && out.failure_reason.empty()) {
    out.failure_reason = !bijective
                             ? "hypothesis is not a bijection"
                             : (!functions.numbering_ok
                                    ? "piles not numbered 0..#banks-1"
                                    : "row/column counts incomplete");
  }

  finish();
  log_info("dramdig: " + std::string(out.success ? "success" : "FAILED") +
           " in " + std::to_string(out.virtual_seconds) + "s, " +
           std::to_string(out.measurement_count) + " measurements (" +
           std::to_string(out.measurements_saved) +
           " answered from the reuse cache)");
  return out;
}

}  // namespace dramdig::core
