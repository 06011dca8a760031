// Microbenchmarks (google-benchmark) for the primitives every experiment
// stands on: mapping decode/encode, GF(2) algebra, the simulated timing
// channel, Algorithm 1 selection and a full pipeline run. These measure
// *host* cost, bounding how long the table/figure harnesses take to run —
// the virtual-time numbers in Fig. 2 are independent.
//
// On top of the google-benchmark suite, main() runs the tracked sections
// and emits them as machine-readable BENCH_micro.json: hot-path
// throughput per layer, the SIMD decode kernel against its portable
// fallback, the per-job set-up path (the simulated OS and the rng engine
// under it), the partition's host cost against the simulator's, and the
// fleet store's verify and warm-start savings. bench_guard floors them (bench/floors.json).
// Flags: --smoke (skip the google-benchmark suite, shrink the batches for
// CI), --out=PATH (default BENCH_micro.json), plus google-benchmark's own
// --benchmark_* flags; any other argument exits 2 with usage.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <span>
#include <string>

#include "api/mapping_service.h"
#include "core/address_selection.h"
#include "core/dramdig.h"
#include "core/environment.h"
#include "core/probe_util.h"
#include "dram/presets.h"
#include "sim/machine.h"
#include "sim/profiles.h"
#include "util/bitops.h"
#include "util/gf2.h"
#include "util/json.h"
#include "util/rng.h"

namespace {

using namespace dramdig;

void BM_MappingDecode(benchmark::State& state) {
  const auto& m = dram::machine_by_number(6).mapping;
  rng r(1);
  std::uint64_t pa = r.below(m.memory_bytes());
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.decode(pa));
    pa = (pa + 4097) & (m.memory_bytes() - 1);
  }
}
BENCHMARK(BM_MappingDecode);

void BM_MappingEncode(benchmark::State& state) {
  const auto& m = dram::machine_by_number(6).mapping;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.encode(i % m.bank_count(), i % 1024, 0));
    ++i;
  }
}
BENCHMARK(BM_MappingEncode);

void BM_Gf2MinimalBasis(benchmark::State& state) {
  rng r(2);
  std::vector<std::uint64_t> funcs;
  for (int i = 0; i < 63; ++i) funcs.push_back(1 + r.below((1u << 22) - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf2::minimal_basis(funcs));
  }
}
BENCHMARK(BM_Gf2MinimalBasis);

void BM_Gf2Solve(benchmark::State& state) {
  const auto& m = dram::machine_by_number(2).mapping;
  std::uint64_t want = 0;
  const std::uint64_t support = (1ull << 22) - (1ull << 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gf2::solve(m.bank_functions(), want, support));
    want = (want + 1) % 32;
  }
}
BENCHMARK(BM_Gf2Solve);

void BM_MeasurePairsBatch4k(benchmark::State& state) {
  // Host throughput of the batched interface servicing 4096 pairs a call.
  const auto spec = dram::machine_by_number(1);
  sim::machine machine(spec, 3, sim::timing_profile_for(spec));
  rng r(9);
  std::vector<sim::addr_pair> pairs;
  for (int i = 0; i < 4096; ++i) {
    pairs.emplace_back(r.below(spec.memory_bytes) & ~63ull,
                       r.below(spec.memory_bytes) & ~63ull);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.controller().measure_pairs(pairs, 1000));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_MeasurePairsBatch4k)->Unit(benchmark::kMillisecond);

void BM_HammerWindow(benchmark::State& state) {
  const auto spec = dram::machine_by_number(2);
  sim::machine machine(spec, 4, sim::timing_profile_for(spec));
  std::uint64_t row = 10;
  for (auto _ : state) {
    const auto a = *spec.mapping.encode(0, row - 1, 0);
    const auto b = *spec.mapping.encode(0, row + 1, 0);
    benchmark::DoNotOptimize(machine.faults().hammer_pair(a, b));
    row = 10 + (row + 4) % 20000;
  }
}
BENCHMARK(BM_HammerWindow);

void BM_AddressSelection(benchmark::State& state) {
  core::environment env(dram::machine_by_number(6), 5);
  const auto& buffer = env.space().map_buffer(env.spec().memory_bytes / 2);
  const std::vector<unsigned> bank_bits{7,  8,  9,  12, 13, 14, 15,
                                        16, 17, 18, 19, 20, 21, 22};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::select_addresses(buffer, bank_bits));
  }
}
BENCHMARK(BM_AddressSelection)->Unit(benchmark::kMillisecond);

void BM_EndToEndDramDigNo4(benchmark::State& state) {
  // Host cost of a full pipeline run on the smallest machine.
  for (auto _ : state) {
    core::environment env(dram::machine_by_number(4),
                          static_cast<std::uint64_t>(state.iterations()));
    core::dramdig_tool tool(env);
    benchmark::DoNotOptimize(tool.run());
  }
}
BENCHMARK(BM_EndToEndDramDigNo4)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// Tracked comparisons emitted to BENCH_micro.json.

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void emit_bench_json(const std::string& path, bool smoke) {
  const auto spec = dram::machine_by_number(1);

  // Hot-path throughput: simulated measurements per second through each
  // layer of the batch-native stack — pure SoA decode, the full batched
  // measure (decode + latency model), and the plan-mediated vote path — at
  // three batch sizes. Min-of-3 on fresh machines per repetition;
  // min_mps_100k (the slower of decode/measure on the mid tier) is
  // CI-gated (bench/floors.json hot_throughput).
  //
  // plan_mps_* votes the shape bank_classifier::partition votes: a pool
  // of distinct buffer addresses, a plan reserve()d for it, and rounds in
  // which every pool address votes against one representative (pair =
  // (representative, address), positives strict-verified as partition's
  // default config does). kVoteReps representatives make one row's
  // `pairs` votes; the number is votes per second.
  struct hot_row {
    const char* suffix;
    std::size_t pairs = 0;
    double decode_mps = 0.0;
    double measure_mps = 0.0;
    double plan_mps = 0.0;
  };
  std::vector<hot_row> hot_rows{
      {"10k", 10000}, {"100k", 100000}, {"1m", 1000000}};
  constexpr std::size_t kVoteReps = 8;
  {
    rng hot_addr(7);
    std::vector<sim::addr_pair> hot_pairs;
    hot_pairs.reserve(hot_rows.back().pairs);
    std::vector<sim::pair_measurement> hot_out;
    for (hot_row& row : hot_rows) {
      while (hot_pairs.size() < row.pairs) {
        hot_pairs.emplace_back(hot_addr.below(spec.memory_bytes) & ~63ull,
                               hot_addr.below(spec.memory_bytes) & ~63ull);
      }
      const std::span<const sim::addr_pair> span(hot_pairs.data(), row.pairs);
      double decode_s = 1e300, measure_s = 1e300, plan_s = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        sim::machine m(spec, 11, sim::timing_profile_for(spec));
        auto tick = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(&m.controller().decode_pairs(span));
        decode_s = std::min(decode_s, wall_seconds_since(tick));

        tick = std::chrono::steady_clock::now();
        m.controller().measure_pairs(span, 1000, hot_out);
        measure_s = std::min(measure_s, wall_seconds_since(tick));
        benchmark::DoNotOptimize(hot_out.data());

        core::environment env(spec, 77);
        const auto& buffer = env.space().map_buffer(spec.memory_bytes / 2);
        rng cal(5);
        timing::channel channel(env.mach().controller(),
                                {.rounds_per_measurement = 1000,
                                 .calibration_pairs = 1200},
                                rng(9));
        channel.calibrate(core::sample_addresses(buffer, 1024, cal));
        // Distinct representatives and a pool of distinct addresses, none
        // a representative, ascending as a selection pool is.
        rng draw(13);
        std::vector<std::uint64_t> reps;
        while (reps.size() < kVoteReps) {
          const std::uint64_t a = core::random_buffer_address(buffer, draw);
          if (std::ranges::find(reps, a) == reps.end()) reps.push_back(a);
        }
        std::vector<std::uint64_t> pool;
        while (pool.size() < row.pairs / kVoteReps) {
          while (pool.size() < row.pairs / kVoteReps) {
            pool.push_back(core::random_buffer_address(buffer, draw));
          }
          std::ranges::sort(pool);
          pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
          std::erase_if(pool, [&](std::uint64_t a) {
            return std::ranges::find(reps, a) != reps.end();
          });
        }
        std::vector<std::vector<sim::addr_pair>> rounds(kVoteReps);
        for (std::size_t k = 0; k < kVoteReps; ++k) {
          for (const std::uint64_t a : pool) rounds[k].emplace_back(reps[k], a);
        }
        core::measurement_plan plan(channel);
        plan.reserve(kVoteReps + pool.size());
        const bool verify = core::partition_config{}.verify_positives;
        tick = std::chrono::steady_clock::now();
        for (const auto& round : rounds) {
          benchmark::DoNotOptimize(
              plan.classify_pairs(round, verify).member.data());
        }
        plan_s = std::min(plan_s, wall_seconds_since(tick));
      }
      const auto mps = [&row](double s) {
        return static_cast<double>(row.pairs) / std::max(s, 1e-12);
      };
      row.decode_mps = mps(decode_s);
      row.measure_mps = mps(measure_s);
      row.plan_mps = mps(plan_s);
    }
  }
  const double min_mps_100k =
      std::min(hot_rows[1].decode_mps, hot_rows[1].measure_mps);

  // SIMD decode kernel: the dispatched decode_banks against the pinned
  // portable kernel on one flat address array (the machine's own function
  // set). Equality of every output word is CI-gated alongside the
  // throughput ratio; simd_available records what the dispatcher resolved
  // on this host (false under DRAMDIG_FORCE_SCALAR_DECODE — the CI run
  // pinning the fallback).
  const std::size_t decode_addrs = smoke ? (1u << 19) : (1u << 21);
  double simd_decode_s = 1e300, scalar_decode_s = 1e300;
  bool decode_identical = false;
  {
    const auto& funcs = spec.mapping.bank_functions();
    rng da(23);
    std::vector<std::uint64_t> addrs(decode_addrs);
    for (std::uint64_t& a : addrs) a = da.below(spec.memory_bytes);
    std::vector<std::uint64_t> out_dispatch(decode_addrs);
    std::vector<std::uint64_t> out_scalar(decode_addrs);
    for (int rep = 0; rep < 3; ++rep) {
      auto tick = std::chrono::steady_clock::now();
      decode_banks(addrs.data(), addrs.size(), funcs.data(), funcs.size(),
                   out_dispatch.data());
      benchmark::DoNotOptimize(out_dispatch.data());
      simd_decode_s = std::min(simd_decode_s, wall_seconds_since(tick));

      tick = std::chrono::steady_clock::now();
      decode_banks_scalar(addrs.data(), addrs.size(), funcs.data(),
                          funcs.size(), out_scalar.data());
      benchmark::DoNotOptimize(out_scalar.data());
      scalar_decode_s = std::min(scalar_decode_s, wall_seconds_since(tick));
    }
    decode_identical = out_dispatch == out_scalar;
  }

  // Set-up path: what every DRAMDig, verify and warm job pays before its
  // first measurement — an environment, a buffer of 55% of memory mapped
  // from the fragmented allocator, and 1,024 calibration addresses drawn
  // from it — on the smallest (No.1) and a large (No.6) machine. Each
  // figure is the best of three passes' per-call means (host
  // microseconds). Under all of it, the rng engine: draws per second of
  // the in-repo MT19937-64 against std::mt19937_64 on the same seed, and
  // whether every draw is equal (both CI-gated: rng_speedup and
  // identical_draws).
  struct setup_row {
    int machine = 0;
    double env_us = 1e300, map_us = 1e300, sample_us = 1e300;
    std::uint64_t runs = 0;
  };
  std::vector<setup_row> setup_rows = {{1}, {6}};
  const int setup_reps = smoke ? 20 : 200;
  for (setup_row& row : setup_rows) {
    const auto& m = dram::machine_by_number(row.machine);
    const std::uint64_t buffer_bytes = static_cast<std::uint64_t>(
        0.55 * static_cast<double>(m.memory_bytes));
    for (int pass = 0; pass < 3; ++pass) {
      double env_s = 0, map_s = 0, sample_s = 0;
      for (int rep = 0; rep < setup_reps; ++rep) {
        const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(rep);
        auto tick = std::chrono::steady_clock::now();
        core::environment env(m, seed);
        env_s += wall_seconds_since(tick);
        tick = std::chrono::steady_clock::now();
        const os::mapping_region& buffer = env.space().map_buffer(buffer_bytes);
        map_s += wall_seconds_since(tick);
        rng r(seed);
        tick = std::chrono::steady_clock::now();
        const auto pool = core::sample_addresses(buffer, 1024, r);
        sample_s += wall_seconds_since(tick);
        benchmark::DoNotOptimize(pool.data());
        row.runs = buffer.pfn_runs().size();
      }
      row.env_us = std::min(row.env_us, 1e6 * env_s / setup_reps);
      row.map_us = std::min(row.map_us, 1e6 * map_s / setup_reps);
      row.sample_us = std::min(row.sample_us, 1e6 * sample_s / setup_reps);
    }
  }
  const std::size_t rng_draws = smoke ? (1u << 21) : (1u << 24);
  double ours_draw_s = 1e300, std_draw_s = 1e300;
  bool identical_draws = true;
  {
    mt19937_64 ours_check(31);
    std::mt19937_64 std_check(31);
    for (std::size_t i = 0; i < rng_draws; ++i) {
      identical_draws = identical_draws && ours_check() == std_check();
    }
    for (int rep = 0; rep < 3; ++rep) {
      mt19937_64 ours(31);
      std::uint64_t sum = 0;
      auto tick = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < rng_draws; ++i) sum += ours();
      benchmark::DoNotOptimize(sum);
      ours_draw_s = std::min(ours_draw_s, wall_seconds_since(tick));

      std::mt19937_64 ref(31);
      sum = 0;
      tick = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < rng_draws; ++i) sum += ref();
      benchmark::DoNotOptimize(sum);
      std_draw_s = std::min(std_draw_s, wall_seconds_since(tick));
    }
  }
  const double rng_speedup = std_draw_s / std::max(ours_draw_s, 1e-12);

  // Partition host cost: one cold DRAMDig run() on No.6, the paper
  // machine whose partition dominates the cold workload, at a fixed seed,
  // best of 5 walls (the measurement count is the same every time). Beside
  // it, this process's simulator cost: measure_pairs on 256-pair batches
  // of random line pairs on the same machine, best of 5 passes of 32,768
  // measurements, each pass right after a job so both minima sample the
  // same stretches of host speed. sim_share = measurements x sim ns / wall
  // is the share of the job the simulated measurements themselves explain;
  // the rest is host bookkeeping (mostly the partition's). Both figures
  // come from one process, so the ratio is floored (bench/floors.json
  // partition_sim_share) where an absolute wall could not be.
  const auto& host_spec = dram::machine_by_number(6);
  constexpr std::uint64_t kHostJobSeed = 1;
  constexpr std::size_t kSimBatch = 256;
  constexpr std::size_t kSimMeasurements = 32768;
  double host_job_s = 1e300, host_sim_s = 1e300;
  std::uint64_t host_job_m = 0;
  {
    core::environment sim_env(host_spec, kHostJobSeed);
    auto& mc = sim_env.mach().controller();
    rng sim_addr(kHostJobSeed);
    const std::uint64_t lines = host_spec.memory_bytes / 64;
    std::vector<sim::addr_pair> batch(kSimBatch);
    for (auto& p : batch) {
      p = {sim_addr.below(lines) * 64, sim_addr.below(lines) * 64};
    }
    std::vector<sim::pair_measurement> sim_out;
    mc.measure_pairs(batch, 1000, sim_out);  // warm the scratch buffers
    for (int rep = 0; rep < 5; ++rep) {
      core::environment env(host_spec, kHostJobSeed);
      core::dramdig_tool tool(env);
      auto tick = std::chrono::steady_clock::now();
      const core::tool_result job = tool.run({});
      host_job_s = std::min(host_job_s, wall_seconds_since(tick));
      host_job_m = job.measurement_count;

      tick = std::chrono::steady_clock::now();
      for (std::size_t done = 0; done < kSimMeasurements; done += kSimBatch) {
        mc.measure_pairs(batch, 1000, sim_out);
      }
      host_sim_s = std::min(host_sim_s, wall_seconds_since(tick));
      benchmark::DoNotOptimize(sim_out.data());
    }
  }
  const double host_sim_ns =
      1e9 * host_sim_s / static_cast<double>(kSimMeasurements);
  const double host_sim_share = static_cast<double>(host_job_m) *
                                host_sim_ns * 1e-9 /
                                std::max(host_job_s, 1e-12);

  // Fleet warm start: the same machine run three ways through the mapping
  // store — cold (empty store, full recovery), verify (exact fingerprint
  // hit, a few hundred designed probes) and warm (geometry sibling, full
  // recovery warm-started from the stored claim: the mapping and the
  // calibration threshold). Two acceptance metrics: a verify hit must
  // cost >=80% fewer measurements (bench/floors.json warm_reduction) and
  // a warm run >=50% fewer (warm_evidence_reduction), both while reproducing
  // the stored mapping bit-identically. Machine No.1 is the fleet's
  // WORST warm case (smallest pool, so the partition stratification
  // never fires) — a floor that holds here holds fleet-wide.
  const auto fleet_spec = dram::machine_by_number(1);
  std::uint64_t fleet_cold_m = 0, fleet_verify_m = 0, fleet_warm_m = 0;
  bool fleet_mapping_identical = false, fleet_hits_ok = false;
  bool fleet_warm_identical = false;
  {
    store::mapping_store fleet_store;  // in-memory: the bench needs no disk
    api::service_config fleet_cfg;
    fleet_cfg.threads = 1;
    fleet_cfg.store = &fleet_store;
    const api::mapping_service fleet(fleet_cfg);
    const std::uint64_t fleet_seed = 777;
    const auto cold = fleet.run({{fleet_spec, "dramdig", {}, fleet_seed}});
    const auto verify = fleet.run({{fleet_spec, "dramdig", {}, fleet_seed}});
    dram::machine_spec sibling = fleet_spec;
    sibling.cpu_model += " (geometry sibling)";
    const auto warm = fleet.run({{sibling, "dramdig", {}, fleet_seed}});
    fleet_cold_m = cold[0].result.measurement_count;
    fleet_verify_m = verify[0].result.measurement_count;
    fleet_warm_m = warm[0].result.measurement_count;
    fleet_mapping_identical =
        cold[0].result.mapping && verify[0].result.mapping &&
        cold[0].result.mapping->describe() == verify[0].result.mapping->describe();
    fleet_warm_identical =
        cold[0].result.mapping && warm[0].result.mapping &&
        cold[0].result.mapping->describe() == warm[0].result.mapping->describe();
    fleet_hits_ok = cold[0].store_hit == "cold" &&
                    verify[0].store_hit == "verify" &&
                    warm[0].store_hit == "warm" &&
                    cold[0].result.verified && verify[0].result.verified &&
                    warm[0].result.verified;
  }
  const auto reduction_vs_cold = [&](std::uint64_t m) {
    return 1.0 - static_cast<double>(m) /
                     static_cast<double>(std::max<std::uint64_t>(fleet_cold_m,
                                                                 1));
  };

  json_writer w;
  w.begin_object();
  w.key("bench").value("micro_primitives");
  w.key("smoke").value(smoke);
  w.key("hot_path_throughput").begin_object();
  for (const hot_row& row : hot_rows) {
    const std::string suffix = row.suffix;
    w.key("pairs_" + suffix).value(row.pairs);
    w.key("decode_mps_" + suffix).value(row.decode_mps);
    w.key("measure_mps_" + suffix).value(row.measure_mps);
    w.key("plan_mps_" + suffix).value(row.plan_mps);
  }
  w.key("min_mps_100k").value(min_mps_100k);
  w.end_object();
  w.key("decode_simd").begin_object();
  w.key("addresses").value(std::uint64_t{decode_addrs});
  w.key("simd_available").value(decode_banks_uses_simd());
  w.key("dispatched_mps")
      .value(static_cast<double>(decode_addrs) /
             std::max(simd_decode_s, 1e-12));
  w.key("scalar_mps").value(static_cast<double>(decode_addrs) /
                            std::max(scalar_decode_s, 1e-12));
  w.key("speedup").value(scalar_decode_s / std::max(simd_decode_s, 1e-9));
  w.key("identical_results").value(decode_identical);
  w.end_object();
  w.key("setup_path").begin_object();
  for (const setup_row& row : setup_rows) {
    const std::string suffix = "no" + std::to_string(row.machine);
    w.key("env_construct_us_" + suffix).value(row.env_us);
    w.key("map_buffer_us_" + suffix).value(row.map_us);
    w.key("sample_addresses_us_" + suffix).value(row.sample_us);
    w.key("buffer_runs_" + suffix).value(row.runs);
  }
  w.key("rng_draws").value(std::uint64_t{rng_draws});
  w.key("engine_draws_per_s")
      .value(static_cast<double>(rng_draws) / std::max(ours_draw_s, 1e-12));
  w.key("std_draws_per_s")
      .value(static_cast<double>(rng_draws) / std::max(std_draw_s, 1e-12));
  w.key("rng_speedup").value(rng_speedup);
  w.key("identical_draws").value(identical_draws);
  w.end_object();
  w.key("partition_host").begin_object();
  w.key("machine").value(host_spec.label());
  w.key("seed").value(kHostJobSeed);
  w.key("job_wall_ms").value(1e3 * host_job_s);
  w.key("measurements").value(host_job_m);
  w.key("sim_ns_per_measurement_b256").value(host_sim_ns);
  w.key("sim_share").value(host_sim_share);
  w.end_object();
  w.key("fleet_warm_start").begin_object();
  w.key("machine").value(fleet_spec.label());
  w.key("cold_measurements").value(fleet_cold_m);
  w.key("verify_measurements").value(fleet_verify_m);
  w.key("warm_measurements").value(fleet_warm_m);
  w.key("verify_reduction").value(reduction_vs_cold(fleet_verify_m));
  w.key("warm_reduction").value(reduction_vs_cold(fleet_warm_m));
  w.key("warm_evidence_measurements").value(fleet_warm_m);
  w.key("warm_evidence_reduction").value(reduction_vs_cold(fleet_warm_m));
  w.key("warm_mapping_identical").value(fleet_warm_identical);
  w.key("mapping_identical").value(fleet_mapping_identical);
  w.key("hits_ok").value(fleet_hits_ok);
  w.end_object();
  w.end_object();
  write_file(path, w.str());

  std::printf("\n== tracked sections (written to %s) ==\n", path.c_str());
  for (const hot_row& row : hot_rows) {
    std::printf("hot path at %zu pairs: decode %.1fM/s, measure %.1fM/s, "
                "plan %.1fM/s\n",
                row.pairs, row.decode_mps / 1e6, row.measure_mps / 1e6,
                row.plan_mps / 1e6);
  }
  std::printf("decode kernel (%s): dispatched %.1fM addr/s, scalar %.1fM "
              "addr/s (%.2fx), identical %s\n",
              decode_banks_uses_simd() ? "AVX2" : "scalar fallback",
              static_cast<double>(decode_addrs) / simd_decode_s / 1e6,
              static_cast<double>(decode_addrs) / scalar_decode_s / 1e6,
              scalar_decode_s / std::max(simd_decode_s, 1e-9),
              decode_identical ? "yes" : "NO");
  for (const setup_row& row : setup_rows) {
    std::printf("set-up on No.%d: environment %.1fus, map_buffer(55%%) "
                "%.1fus (%llu runs), sample_addresses(1024) %.1fus\n",
                row.machine, row.env_us, row.map_us,
                static_cast<unsigned long long>(row.runs), row.sample_us);
  }
  std::printf("rng engine, %zu draws: in-repo %.1fM/s, std %.1fM/s (%.2fx), "
              "identical %s\n",
              rng_draws, static_cast<double>(rng_draws) / ours_draw_s / 1e6,
              static_cast<double>(rng_draws) / std_draw_s / 1e6, rng_speedup,
              identical_draws ? "yes" : "NO");
  std::printf("partition host cost on %s: job %.2f ms, %llu measurements "
              "x %.1f ns simulated = sim share %.3f\n",
              host_spec.label().c_str(), 1e3 * host_job_s,
              static_cast<unsigned long long>(host_job_m), host_sim_ns,
              host_sim_share);
  std::printf("fleet warm start on %s: cold %llu, verify %llu (-%.0f%%), "
              "warm %llu (-%.0f%%) measurements, mapping "
              "identical: %s\n",
              fleet_spec.label().c_str(),
              static_cast<unsigned long long>(fleet_cold_m),
              static_cast<unsigned long long>(fleet_verify_m),
              100.0 * reduction_vs_cold(fleet_verify_m),
              static_cast<unsigned long long>(fleet_warm_m),
              100.0 * reduction_vs_cold(fleet_warm_m),
              fleet_mapping_identical && fleet_warm_identical &&
                      fleet_hits_ok
                  ? "yes"
                  : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark takes its own --benchmark_* flags out of argv first;
  // anything left besides ours is a mistake.
  benchmark::Initialize(&argc, argv);
  const char* usage =
      "usage: bench_micro_primitives [--smoke] [--out=PATH] "
      "[--benchmark_*=...]\n";
  bool smoke = false;
  std::string out = "BENCH_micro.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
      if (out.empty()) {
        std::fprintf(stderr, "error: --out needs a path\n%s", usage);
        return 2;
      }
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n%s", argv[i], usage);
      return 2;
    }
  }
  if (!smoke) benchmark::RunSpecifiedBenchmarks();
  try {
    emit_bench_json(out, smoke);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
