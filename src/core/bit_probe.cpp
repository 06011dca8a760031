#include "core/bit_probe.h"

#include "core/probe_util.h"
#include "util/expect.h"

namespace dramdig::core {

bit_probe_engine::bit_probe_engine(measurement_plan& plan,
                                   const os::mapping_region& buffer)
    : plan_(plan), buffer_(buffer) {}

std::vector<std::optional<bool>> bit_probe_engine::run(
    std::span<const std::uint64_t> deltas, const probe_config& config, rng& r,
    std::string_view stage) {
  return run(deltas, {}, config, r, stage);
}

std::vector<std::optional<bool>> bit_probe_engine::run(
    std::span<const std::uint64_t> deltas,
    std::span<const std::optional<bool>> priors, const probe_config& config,
    rng& r, std::string_view stage) {
  DRAMDIG_EXPECTS(config.votes >= 1);
  DRAMDIG_EXPECTS(priors.empty() || priors.size() == deltas.size());
  stats_.experiments += deltas.size();
  struct experiment {
    unsigned pos = 0;    ///< positive votes
    unsigned cast = 0;   ///< votes cast (pair picking can miss a round)
    unsigned agree = 0;  ///< consecutive votes agreeing with the prior
    bool done = false;
    bool verdict = false;
    bool has_prior = false;
    bool prior = false;
  };
  std::vector<experiment> state(deltas.size());
  if (!priors.empty() && config.prior_confirm >= 1) {
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      if (priors[i]) {
        state[i].has_prior = true;
        state[i].prior = *priors[i];
      }
    }
  }
  auto& controller = plan_.channel().controller();

  std::vector<std::size_t> active;
  std::vector<std::uint64_t> active_deltas;
  std::vector<sim::addr_pair> pairs;
  std::vector<std::size_t> pair_exp;
  for (unsigned round = 0; round < config.votes; ++round) {
    active.clear();
    active_deltas.clear();
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      if (!state[i].done) {
        active.push_back(i);
        active_deltas.push_back(deltas[i]);
      }
    }
    if (active.empty()) break;
    const std::uint64_t m0 = controller.measurement_count();

    // Design the round around one shared base; deltas it cannot serve
    // fall back to an independent pick (and a pick can fail outright —
    // that experiment simply misses this vote).
    const auto base =
        pick_shared_base(buffer_, active_deltas, r, config.base_attempts);
    pairs.clear();
    pair_exp.clear();
    for (std::size_t j = 0; j < active.size(); ++j) {
      const std::uint64_t d = active_deltas[j];
      if (base && buffer_.contains_page((*base ^ d) / os::kPageSize)) {
        pairs.emplace_back(*base, *base ^ d);
        ++stats_.shared_base_votes;
      } else if (const auto pick =
                     pick_pair_with_delta(buffer_, d, r, config.pair_attempts)) {
        pairs.push_back(*pick);
      } else {
        continue;
      }
      pair_exp.push_back(active[j]);
    }
    ++stats_.rounds;
    if (!pairs.empty()) {
      const auto outcome = plan_.probe_pairs(pairs);
      stats_.reused_votes += outcome.reused;
      stats_.votes_cast += pairs.size();
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        experiment& e = state[pair_exp[k]];
        ++e.cast;
        const bool vote = outcome.sbdr[k] != 0;
        e.pos += vote;
        if (e.has_prior) {
          if (vote == e.prior) {
            ++e.agree;
          } else {
            // A strict-grade vote against the claim: the prior is wrong
            // for this experiment. Drop it and let the standard majority
            // decide — advisory evidence costs votes, never the verdict.
            e.has_prior = false;
            ++stats_.priors_refuted;
          }
        }
      }
    }

    // Early termination: decide every experiment whose remaining rounds
    // cannot flip its majority. With k more rounds an experiment gains at
    // most k votes, so positive is locked once pos*2 > cast + k (even
    // all-negative remainders keep the majority) and negative once
    // pos*2 + k <= cast (even all-positive remainders cannot reach it).
    const unsigned remaining = config.votes - round - 1;
    for (const std::size_t i : active) {
      experiment& e = state[i];
      if (e.has_prior && e.agree >= config.prior_confirm) {
        // Prior confirmed by strict-grade agreement: settled early.
        e.done = true;
        e.verdict = e.prior;
        stats_.votes_saved += remaining;
        ++stats_.priors_confirmed;
        continue;
      }
      if (e.pos * 2 > e.cast + remaining) {
        e.done = true;
        e.verdict = true;
        stats_.votes_saved += remaining;
      } else if (e.pos * 2 + remaining <= e.cast) {
        e.done = true;
        e.verdict = false;
        stats_.votes_saved += remaining;
      }
    }
    if (on_round_) {
      on_round_(probe_round_event{stage, round, active.size(),
                                  static_cast<std::uint64_t>(pairs.size()),
                                  controller.measurement_count() - m0});
    }
  }

  std::vector<std::optional<bool>> out(deltas.size());
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const experiment& e = state[i];
    if (e.cast == 0) continue;  // untestable: no pair ever found
    out[i] = e.done ? e.verdict : e.pos * 2 > e.cast;
  }
  return out;
}

std::optional<bool> bit_probe_engine::run_one(std::uint64_t delta,
                                              const probe_config& config,
                                              rng& r, std::string_view stage) {
  const std::uint64_t deltas[1] = {delta};
  return run(deltas, config, r, stage).front();
}

}  // namespace dramdig::core
