#include "core/classifier.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "util/bitops.h"
#include "util/expect.h"
#include "util/gf2.h"
#include "util/log.h"

namespace dramdig::core {

partition_outcome bank_classifier::partition(std::vector<std::uint64_t> pool,
                                             unsigned bank_count, rng& r,
                                             const partition_config& config) {
  DRAMDIG_EXPECTS(bank_count >= 2);
  DRAMDIG_EXPECTS(pool.size() >= bank_count);
  partition_outcome out;
  const std::size_t n = pool.size();
  const double pile_sz =
      static_cast<double>(n) / static_cast<double>(bank_count);
  const double lo = (1.0 - config.delta_lower) * pile_sz;
  const double hi = (1.0 + config.delta) * pile_sz;
  const std::size_t stop_at = static_cast<std::size_t>(
      (1.0 - config.per_threshold) * static_cast<double>(n));
  const std::size_t target = n - stop_at;
  const unsigned max_attempts = config.max_pivot_attempts != 0
                                    ? config.max_pivot_attempts
                                    : 4 * bank_count + 32;
  const unsigned max_reps = std::max(1u, config.max_representatives);
  const std::uint64_t free_credit =
      plan_.saved_scan_credit(config.verify_positives);

  scan_options founder_opts{};
  founder_opts.verify_positives = config.verify_positives;
  founder_opts.prescreen_sample = config.prescreen_sample;
  founder_opts.prescreen_z = config.prescreen_z;
  founder_opts.window = {lo, hi};

  // Per-address state. assigned_class holds an index into classes_;
  // exhausted marks contradiction stragglers (every representative of
  // their predicted class refuted them — noise), founder_blocked marks
  // addresses whose founder scan the window rejected.
  std::vector<int> assigned_class(n, -1);
  std::vector<char> exhausted(n, 0);
  std::vector<char> founder_blocked(n, 0);
  std::size_t assigned_count = 0;

  const auto assign = [&](std::size_t i, int c) {
    assigned_class[i] = c;
    ++assigned_count;
  };
  // Promote a freshly verified member to representative when it is
  // provably row-distinct from every current representative (a strict
  // SBDR positive proves different rows, so the memo check suffices and
  // never costs a measurement).
  const auto maybe_promote = [&](int c, std::uint64_t x) {
    std::vector<std::uint64_t>& reps = classes_[c].representatives;
    if (reps.size() >= max_reps) return;
    for (const std::uint64_t rep : reps) {
      if (!plan_.known_strict_positive(x, rep)) return;
    }
    reps.push_back(x);
  };

  // ---- Knowledge-assisted prediction. -----------------------------------
  // The strict-verified piles' XOR differences (restricted to the bits
  // that vary across the pool) span the orthogonal complement of the bank
  // functions, so the difference matrix's null space always CONTAINS the
  // true function span. When its dimension equals log2(#banks) it IS the
  // span — then every address's bank id is computable host-side and the
  // first vote goes to the right class. A thinner pile leaves the space
  // too fine (untrusted): the engine falls back to sweeping every open
  // class, which is exactly as safe and as expensive as a pivot-scan loop.
  std::uint64_t support = 0;
  for (const std::uint64_t a : pool) support |= a ^ pool.front();
  const unsigned want = (bank_count & (bank_count - 1)) == 0
                            ? log2_exact(bank_count)
                            : 0;
  bool trusted = false;
  gf2::matrix basis;
  std::vector<std::uint64_t> ids(n, 0);
  std::unordered_map<std::uint64_t, int> id_to_class;
  const auto id_of = [&](std::uint64_t addr) {
    std::uint64_t id = 0;
    for (std::size_t k = 0; k < basis.size(); ++k) {
      id |= static_cast<std::uint64_t>(parity(addr, basis[k])) << k;
    }
    return id;
  };
  const auto refresh_prediction = [&]() {
    trusted = false;
    id_to_class.clear();
    if (want == 0) return;
    gf2::matrix diff_basis;
    for (const bank_class& c : classes_) {
      const std::uint64_t base = c.members.front();
      for (std::size_t i = 1; i < c.members.size(); ++i) {
        std::uint64_t d = (c.members[i] ^ base) & support;
        for (const std::uint64_t b : diff_basis) {
          const int pivot_bit = 63 - std::countl_zero(b);
          if (pivot_bit >= 0 && ((d >> pivot_bit) & 1u)) d ^= b;
        }
        if (d != 0) diff_basis.push_back(d);
      }
    }
    basis = classes_.empty() ? gf2::matrix{}
                             : gf2::nullspace(diff_basis, support);
    if (basis.size() != want) {
      // Fleet warm start: while the accreted piles cannot pin the span
      // themselves, fall back to the stored sibling span — but only while
      // every measured same-bank difference stays orthogonal to it. Same-
      // bank members have equal parity under every true function, so a
      // single odd overlap proves the hint wrong for this machine and
      // latches it off; the accreted evidence then takes over exactly as
      // in a cold run.
      if (warm_span_.empty() || warm_poisoned_) return;
      gf2::matrix hint;
      for (std::uint64_t f : warm_span_) {
        if ((f &= support) != 0) hint.push_back(f);
      }
      for (const std::uint64_t d : diff_basis) {
        for (const std::uint64_t f : hint) {
          if (parity(d, f) != 0) {
            warm_poisoned_ = true;
            return;
          }
        }
      }
      hint = gf2::row_echelon(std::move(hint));
      if (hint.size() != want) return;  // hint too thin on this pool
      basis = std::move(hint);
    }
    trusted = true;
    for (std::size_t i = 0; i < n; ++i) ids[i] = id_of(pool[i]);
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      id_to_class.emplace(id_of(classes_[c].members.front()),
                          static_cast<int>(c));
    }
  };

  // ---- Stage 0: resolve what the plan already proves (directory reuse). --
  // Classes that survived a previous call (the bank-count sweep, repeat
  // partitions) re-claim their members straight from the union-find — no
  // measurement, the representative verdicts already merged them.
  if (!classes_.empty()) {
    std::unordered_map<std::size_t, int> root_to_class;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      const std::size_t root =
          plan_.class_root(classes_[c].representatives.front());
      if (root != measurement_plan::no_class) {
        root_to_class.emplace(root, static_cast<int>(c));
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t root = plan_.class_root(pool[i]);
      if (root == measurement_plan::no_class) continue;
      const auto hit = root_to_class.find(root);
      if (hit == root_to_class.end()) continue;
      assign(i, hit->second);
      ++out.reused_verdicts;
      ++stats_.free_assignments;
      plan_.credit_saved(free_credit);
    }
  }

  // ---- Main rounds: vote batch, then at most one founder scan. -----------
  std::vector<sim::addr_pair> vote_pairs;
  std::vector<std::size_t> vote_idx;
  std::vector<int> vote_class;
  std::vector<char> vote_fallback;
  std::vector<std::size_t> founder_candidates;
  std::vector<std::uint64_t> partners;
  std::vector<std::size_t> partner_idx;
  // Founder-pick scratch: ids are `want`-bit values, so group sizes live
  // in a flat array indexed by id — rebuilt per round, never allocated.
  std::vector<std::size_t> group_size(want == 0 ? 0 : std::size_t{1} << want);
  unsigned founder_attempts = 0;
  bool prediction_dirty = true;
  // Livelock bound: an address's ladder has at most one rung per
  // representative per class, so any stretch of all-negative vote rounds
  // longer than that means the ladder's memory is being erased out from
  // under it (witness LRU eviction with more open classes than
  // plan_config::max_witnesses) — fail the partition instead of spinning.
  const unsigned max_barren_rounds = bank_count * max_reps + 2;
  unsigned barren_rounds = 0;

  while (assigned_count < target) {
    if (barren_rounds > max_barren_rounds) {
      log_error("partition(rep): no progress after " +
                std::to_string(barren_rounds) +
                " vote rounds (witness capacity too small for " +
                std::to_string(classes_.size()) + " open classes?)");
      break;  // success stays false below
    }
    const std::size_t assigned_before_round = assigned_count;
    if (prediction_dirty || !trusted) {
      refresh_prediction();
      prediction_dirty = false;
    }

    // Collect this round's votes: one (representative, address) pair per
    // unassigned address, predicted class first when the prediction is
    // trusted, open classes in discovery order otherwise. The plan's
    // relation cache is the ladder memory — a cast vote is an exact-pair
    // witness, so the next round naturally advances to the next rung.
    vote_pairs.clear();
    vote_idx.clear();
    vote_class.clear();
    vote_fallback.clear();
    founder_candidates.clear();
    std::size_t free_this_round = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (assigned_class[i] >= 0 || exhausted[i]) continue;
      const std::uint64_t x = pool[i];
      int pick_class = -1;
      std::uint64_t pick_rep = 0;
      bool pick_fallback = false;
      bool resolved = false;
      if (trusted) {
        const auto hit = id_to_class.find(ids[i]);
        if (hit == id_to_class.end()) {
          founder_candidates.push_back(i);
          continue;
        }
        const int c = hit->second;
        const std::vector<std::uint64_t>& reps =
            classes_[c].representatives;
        for (std::size_t ri = 0; ri < reps.size(); ++ri) {
          const pair_relation rel = plan_.relation(x, reps[ri]);
          if (rel == pair_relation::same_bank) {
            assign(i, c);
            ++out.reused_verdicts;
            ++stats_.free_assignments;
            plan_.credit_saved(free_credit);
            ++free_this_round;
            resolved = true;
            break;
          }
          if (rel == pair_relation::unknown) {
            pick_class = c;
            pick_rep = reps[ri];
            pick_fallback = ri > 0;
            break;
          }
        }
        if (resolved) continue;
        if (pick_class < 0) {
          // Every row-distinct representative of the (provably right)
          // class refuted this address: contamination noise. Leave it to
          // the per_threshold straggler allowance, like the paper does.
          exhausted[i] = 1;
          continue;
        }
      } else {
        // Untrusted sweep: honour any cached positive first, then the
        // first unanswered primary vote, then the second-representative
        // fallback rung, and only then the founder queue.
        for (std::size_t c = 0; c < classes_.size() && !resolved; ++c) {
          const std::vector<std::uint64_t>& reps =
              classes_[c].representatives;
          const pair_relation rel = plan_.relation(x, reps.front());
          if (rel == pair_relation::same_bank) {
            assign(i, static_cast<int>(c));
            ++out.reused_verdicts;
            ++stats_.free_assignments;
            plan_.credit_saved(free_credit);
            ++free_this_round;
            resolved = true;
          } else if (rel == pair_relation::unknown && pick_class < 0) {
            pick_class = static_cast<int>(c);
            pick_rep = reps.front();
          }
        }
        if (resolved) continue;
        if (pick_class < 0) {
          for (std::size_t c = 0; c < classes_.size(); ++c) {
            const std::vector<std::uint64_t>& reps =
                classes_[c].representatives;
            if (reps.size() < 2) continue;
            if (plan_.relation(x, reps[1]) == pair_relation::unknown) {
              pick_class = static_cast<int>(c);
              pick_rep = reps[1];
              pick_fallback = true;
              break;
            }
          }
        }
        if (pick_class < 0) {
          founder_candidates.push_back(i);
          continue;
        }
      }
      vote_pairs.emplace_back(pick_rep, x);
      vote_idx.push_back(i);
      vote_class.push_back(pick_class);
      vote_fallback.push_back(pick_fallback ? 1 : 0);
    }

    // Cast the round's votes in one batch.
    if (!vote_pairs.empty()) {
      const auto votes =
          plan_.classify_pairs(vote_pairs, config.verify_positives);
      out.reused_verdicts += votes.reused;
      for (std::size_t j = 0; j < vote_pairs.size(); ++j) {
        if (vote_fallback[j]) {
          ++out.fallback_votes;
          ++stats_.fallback_votes;
        } else {
          ++out.representative_votes;
          ++stats_.representative_votes;
        }
        if (!votes.member[j]) continue;
        const std::size_t i = vote_idx[j];
        const int c = vote_class[j];
        assign(i, c);
        classes_[c].members.push_back(pool[i]);
        maybe_promote(c, pool[i]);
        if (trusted && !vote_fallback[j]) {
          ++out.predicted_assignments;
          ++stats_.predicted_assignments;
        }
        prediction_dirty = true;
      }
    }

    // Open at most one new class per round: the founder's scan is either
    // limited to its predicted id group (trusted — the group IS the bank)
    // or the full unassigned pool with the adaptive pre-screen (untrusted).
    bool founder_ran = false;
    if (assigned_count < target && founder_attempts < max_attempts &&
        classes_.size() < bank_count) {
      std::size_t pick = n;  // n = none
      if (trusted) {
        // Largest unassigned id group founds first: most information per
        // scan, and ties broken by pool order keep the choice
        // deterministic.
        std::fill(group_size.begin(), group_size.end(), 0);
        for (std::size_t i = 0; i < n; ++i) {
          if (assigned_class[i] < 0) ++group_size[ids[i]];
        }
        std::size_t best = 0;
        for (const std::size_t i : founder_candidates) {
          if (founder_blocked[i]) continue;
          const std::size_t g = group_size[ids[i]];
          if (g > best) {
            best = g;
            pick = i;
          }
        }
      } else {
        std::vector<std::size_t> eligible;
        for (const std::size_t i : founder_candidates) {
          if (!founder_blocked[i]) eligible.push_back(i);
        }
        if (!eligible.empty()) pick = eligible[r.below(eligible.size())];
      }
      if (pick < n) {
        ++founder_attempts;
        ++out.founder_scans;
        ++stats_.founder_scans;
        founder_ran = true;
        const std::uint64_t pivot = pool[pick];
        partners.clear();
        partner_idx.clear();
        for (std::size_t i = 0; i < n; ++i) {
          if (i == pick || assigned_class[i] >= 0) continue;
          if (trusted && ids[i] != ids[pick]) continue;
          partners.push_back(pool[i]);
          partner_idx.push_back(i);
        }
        scan_options opts = founder_opts;
        if (trusted) {
          ++stats_.group_founder_scans;
          opts.prescreen_sample = 0;  // the group is already pile-sized
        }
        if (static_cast<double>(partners.size() + 1) < lo) {
          // The candidate pile cannot reach the window even if every
          // partner joins: reject without measuring.
          ++out.rejected_piles;
          founder_blocked[pick] = 1;
        } else {
          const auto verdict = plan_.classify_partners(pivot, partners, opts);
          out.reused_verdicts += verdict.reused;
          if (verdict.prescreen_rejected) {
            ++out.rejected_piles;
            ++out.prescreen_rejections;
            founder_blocked[pick] = 1;
          } else {
            std::size_t member_count = 0;
            for (const char m : verdict.member) member_count += m != 0;
            const double size = static_cast<double>(member_count + 1);
            if (size < lo || size > hi) {
              ++out.rejected_piles;
              founder_blocked[pick] = 1;
            } else {
              bank_class fresh;
              fresh.members.push_back(pivot);
              fresh.representatives.push_back(pivot);
              classes_.push_back(std::move(fresh));
              const int c = static_cast<int>(classes_.size()) - 1;
              assign(pick, c);
              for (std::size_t j = 0; j < partners.size(); ++j) {
                if (!verdict.member[j]) continue;
                assign(partner_idx[j], c);
                classes_[c].members.push_back(partners[j]);
                maybe_promote(c, partners[j]);
              }
              if (trusted) {
                out.predicted_assignments += member_count + 1;
                stats_.predicted_assignments += member_count + 1;
              }
              prediction_dirty = true;
            }
          }
        }
      }
    }

    if (vote_pairs.empty() && free_this_round == 0 && !founder_ran) {
      break;  // nothing left to try: stragglers beyond the ladder
    }
    // Founder scans are capped by max_attempts, so they count as progress;
    // barren stretches are only rounds of purely negative votes.
    if (assigned_count > assigned_before_round || founder_ran) {
      barren_rounds = 0;
    } else {
      ++barren_rounds;
    }
  }

  // ---- Assemble piles, re-validating the window. -------------------------
  // Directory classes founded under another bank-count hypothesis can fall
  // outside this call's window; their members then don't count as
  // partitioned (and the call fails if too little survives), which is the
  // wrong-bank-count rejection the sweep relies on.
  std::vector<std::vector<std::size_t>> pile_members(classes_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (assigned_class[i] >= 0) {
      pile_members[static_cast<std::size_t>(assigned_class[i])].push_back(i);
    }
  }
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (pile_members[c].empty()) continue;
    const double size = static_cast<double>(pile_members[c].size());
    if (size < lo || size > hi) {
      ++out.rejected_piles;
      continue;
    }
    std::vector<std::uint64_t> pile;
    pile.reserve(pile_members[c].size());
    // Pivot-first ordering: element 0 of every pile is its founder.
    const std::uint64_t pivot = classes_[c].representatives.front();
    for (const std::size_t i : pile_members[c]) {
      if (pool[i] == pivot) pile.push_back(pool[i]);
    }
    for (const std::size_t i : pile_members[c]) {
      if (pool[i] != pivot) pile.push_back(pool[i]);
    }
    out.partitioned += pile.size();
    out.piles.push_back(std::move(pile));
  }
  out.success = out.partitioned >= target;

  if (out.success) {
    log_info("partition(rep): " + std::to_string(out.piles.size()) +
             " piles, " + std::to_string(out.partitioned) + "/" +
             std::to_string(n) + " assigned, " +
             std::to_string(out.representative_votes) + "+" +
             std::to_string(out.fallback_votes) + " votes, " +
             std::to_string(out.founder_scans) + " founder scans, " +
             std::to_string(out.predicted_assignments) + " predicted, " +
             std::to_string(out.reused_verdicts) + " verdicts reused");
  } else {
    log_error("partition(rep): only " + std::to_string(out.partitioned) +
              "/" + std::to_string(n) + " assigned after " +
              std::to_string(out.founder_scans) + " founder scans");
  }
  return out;
}

}  // namespace dramdig::core
