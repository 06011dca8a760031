#include "core/classifier.h"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "util/bitops.h"
#include "util/expect.h"
#include "util/gf2.h"
#include "util/log.h"

namespace dramdig::core {

namespace {

/// Row-distinct representatives kept per class. 2 is the sweet spot: an
/// address can share a row with at most one of them, so the second
/// representative already catches every same-row false negative.
constexpr unsigned kMaxRepresentatives = 2;

}  // namespace

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
  const std::uint64_t free_credit =
      plan_.saved_scan_credit(config.verify_positives);
  // Every pool address the rounds below measure gets a plan record, and
  // most get a strict-positive memo pair: size both tables once.
  plan_.reserve(n);

  scan_options founder_opts{};
  founder_opts.verify_positives = config.verify_positives;
  founder_opts.prescreen_sample = kPrescreenSample;
  founder_opts.window = {lo, hi};

  // Per-address state. assigned_class holds an index into classes_;
  // exhausted marks contradiction stragglers (every representative of
  // their predicted class refuted them — noise), founder_blocked marks
  // addresses whose founder scan the window rejected.
  std::vector<int> assigned_class(n, -1);
  std::vector<char> exhausted(n, 0);
  std::vector<char> founder_blocked(n, 0);
  std::size_t assigned_count = 0;
  // Set while the prediction is trusted; then the buckets below index the
  // unassigned pool by predicted id.
  bool trusted = false;
  std::vector<std::uint64_t> ids(n, 0);
  std::vector<std::size_t> bucket_live;

  const auto assign = [&](std::size_t i, int c) {
    assigned_class[i] = c;
    ++assigned_count;
    if (trusted) --bucket_live[ids[i]];
  };
  // Promote a freshly verified member to representative when it is
  // provably row-distinct from every current representative (a strict
  // SBDR positive proves different rows, so the memo check suffices and
  // never costs a measurement).
  const auto maybe_promote = [&](int c, std::uint64_t x) {
    std::vector<std::uint64_t>& reps = classes_[c].representatives;
    if (reps.size() >= kMaxRepresentatives) return;
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
  //
  // The prediction is maintained incrementally: each refresh reduces only
  // the members added since the last one into the difference basis, and
  // the null space, the pool's ids and the id->class table are rebuilt
  // only when that basis grows (or the first class appears). The null
  // space depends only on the basis's row space, so this is the same
  // prediction a from-scratch rebuild would make.
  std::uint64_t support = 0;
  for (const std::uint64_t a : pool) support |= a ^ pool.front();
  const unsigned want = (bank_count & (bank_count - 1)) == 0
                            ? log2_exact(bank_count)
                            : 0;
  gf2::matrix basis;
  gf2::matrix diff_basis;
  // reduced_upto[c]: classes_[c].members before this index are already
  // reduced into diff_basis (member 0 is the difference base).
  std::vector<std::size_t> reduced_upto;
  // Classes [0, claimed) hold their id slot in class_of_id; the lowest
  // class index wins a shared id. stale forces a rebuild while no class
  // exists yet (the first class switches the basis on).
  std::size_t claimed = 0;
  bool stale = true;
  const std::size_t groups = want == 0 ? 0 : std::size_t{1} << want;
  std::vector<int> class_of_id(groups, -1);
  // Trusted rounds work per predicted id, never per pool address. Each
  // rebuild of `ids` also buckets the unassigned pool indices by id:
  // bucket `id` is bucket_len[id] entries of bucket_pool from
  // bucket_begin[id]. Buckets keep pool order and are never swap-removed:
  // each measurement keys its noise on its batch index, so vote and
  // partner order are part of the result. Assigned entries are dropped
  // lazily when a bucket is visited; bucket_live counts each bucket's
  // unassigned entries.
  std::vector<std::size_t> bucket_pool;
  std::vector<std::size_t> bucket_begin(groups);
  std::vector<std::size_t> bucket_len(groups);
  bucket_live.resize(groups);
  const auto build_buckets = [&]() {
    std::fill(bucket_live.begin(), bucket_live.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (assigned_class[i] < 0) ++bucket_live[ids[i]];
    }
    std::size_t at = 0;
    for (std::size_t id = 0; id < groups; ++id) {
      bucket_begin[id] = at;
      bucket_len[id] = 0;
      at += bucket_live[id];
    }
    bucket_pool.resize(at);
    for (std::size_t i = 0; i < n; ++i) {
      if (assigned_class[i] < 0) {
        bucket_pool[bucket_begin[ids[i]] + bucket_len[ids[i]]++] = i;
      }
    }
  };
  // Bucket `id`'s unassigned entries, compacting out the assigned ones.
  const auto live_bucket = [&](std::size_t id) {
    std::size_t* const b = bucket_pool.data() + bucket_begin[id];
    std::size_t kept = 0;
    for (std::size_t k = 0; k < bucket_len[id]; ++k) {
      if (assigned_class[b[k]] < 0) b[kept++] = b[k];
    }
    bucket_len[id] = kept;
    return std::span<const std::size_t>(b, kept);
  };
  const auto claim_ids = [&]() {
    for (; claimed < classes_.size(); ++claimed) {
      int& slot =
          class_of_id[bank_id(classes_[claimed].members.front(), basis)];
      if (slot < 0) slot = static_cast<int>(claimed);
    }
  };
  const auto rebuild_prediction = [&]() {
    trusted = false;
    claimed = 0;
    stale = classes_.empty();
    basis = classes_.empty() ? gf2::matrix{}
                             : gf2::nullspace(diff_basis, support);
    if (basis.size() != want) {
      // Fleet warm start: while the accreted piles cannot pin the span
      // themselves, fall back to the stored sibling span (a wrong one
      // fails the call; see warm_start).
      if (warm_span_.empty()) return;
      gf2::matrix hint;
      for (std::uint64_t f : warm_span_) {
        if ((f &= support) != 0) hint.push_back(f);
      }
      hint = gf2::row_echelon(std::move(hint));
      if (hint.size() != want) return;  // hint too thin on this pool
      basis = std::move(hint);
    }
    decode_banks(pool.data(), n, basis.data(), basis.size(), ids.data());
    build_buckets();
    trusted = true;
    std::fill(class_of_id.begin(), class_of_id.end(), -1);
    claim_ids();
  };
  const auto refresh_prediction = [&]() {
    if (want == 0) return;
    reduced_upto.resize(classes_.size(), 1);
    bool grew = false;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      const std::vector<std::uint64_t>& members = classes_[c].members;
      for (std::size_t i = reduced_upto[c]; i < members.size(); ++i) {
        grew |= gf2::reduce_into(diff_basis,
                                 (members[i] ^ members.front()) & support);
      }
      reduced_upto[c] = members.size();
    }
    if (grew || stale) {
      rebuild_prediction();
    } else if (trusted) {
      claim_ids();  // a class founded under an unchanged basis
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
      plan_.credit_saved(free_credit);
    }
  }

  // ---- Main rounds: vote batch, then at most one founder scan. -----------
  std::vector<sim::addr_pair> vote_pairs;
  std::vector<std::size_t> vote_idx;
  std::vector<int> vote_class;
  std::vector<char> vote_fallback;
  std::vector<std::size_t> founder_candidates;
  std::vector<std::size_t> voters;
  std::vector<std::uint64_t> partners;
  std::vector<std::size_t> partner_idx;
  unsigned founder_attempts = 0;
  bool prediction_dirty = true;
  // The rounds end: a vote is only cast on a pair the plan cannot answer,
  // and its verdict stays cached for the rest of the run (a positive
  // assigns, a negative is a witness entry), free assignments are bounded
  // by the pool and founder scans by max_attempts.
  while (assigned_count < target) {
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
    const auto assign_free = [&](std::size_t i, int c) {
      assign(i, c);
      ++out.reused_verdicts;
      plan_.credit_saved(free_credit);
      ++free_this_round;
    };
    const auto add_vote = [&](std::size_t i, std::uint64_t rep, int c,
                              bool fallback) {
      vote_pairs.emplace_back(rep, pool[i]);
      vote_idx.push_back(i);
      vote_class.push_back(c);
      vote_fallback.push_back(fallback ? 1 : 0);
    };
    if (trusted) {
      // Only the open classes' buckets vote, in pool order.
      voters.clear();
      for (std::size_t id = 0; id < groups; ++id) {
        if (class_of_id[id] < 0) continue;
        for (const std::size_t i : live_bucket(id)) {
          if (!exhausted[i]) voters.push_back(i);
        }
      }
      std::sort(voters.begin(), voters.end());
      for (const std::size_t i : voters) {
        const int c = class_of_id[ids[i]];
        const std::vector<std::uint64_t>& reps =
            classes_[c].representatives;
        std::size_t ri = 0;
        pair_relation rel = pair_relation::cross_pile;
        for (; ri < reps.size(); ++ri) {
          rel = plan_.relation(pool[i], reps[ri]);
          if (rel != pair_relation::cross_pile) break;
        }
        if (rel == pair_relation::same_bank) {
          assign_free(i, c);
        } else if (rel == pair_relation::unknown) {
          add_vote(i, reps[ri], c, ri > 0);
        } else {
          // Every row-distinct representative of the (provably right)
          // class refuted this address: contamination noise. Leave it to
          // the per_threshold straggler allowance, like the paper does.
          exhausted[i] = 1;
        }
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        if (assigned_class[i] >= 0 || exhausted[i]) continue;
        const std::uint64_t x = pool[i];
        int pick_class = -1;
        std::uint64_t pick_rep = 0;
        bool pick_fallback = false;
        bool resolved = false;
        // Untrusted sweep: honour any cached positive first, then the
        // first unanswered primary vote, then the second-representative
        // fallback rung, and only then the founder queue.
        for (std::size_t c = 0; c < classes_.size() && !resolved; ++c) {
          const std::vector<std::uint64_t>& reps =
              classes_[c].representatives;
          const pair_relation rel = plan_.relation(x, reps.front());
          if (rel == pair_relation::same_bank) {
            assign_free(i, static_cast<int>(c));
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
        add_vote(i, pick_rep, pick_class, pick_fallback);
      }
    }

    // Cast the round's votes in one batch.
    if (!vote_pairs.empty()) {
      const auto votes =
          plan_.classify_pairs(vote_pairs, config.verify_positives);
      out.reused_verdicts += votes.reused;
      for (std::size_t j = 0; j < vote_pairs.size(); ++j) {
        ++(vote_fallback[j] ? out.fallback_votes : out.representative_votes);
        if (!votes.member[j]) continue;
        const std::size_t i = vote_idx[j];
        const int c = vote_class[j];
        assign(i, c);
        classes_[c].members.push_back(pool[i]);
        maybe_promote(c, pool[i]);
        if (trusted && !vote_fallback[j]) ++out.predicted_assignments;
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
        // scan. Its founder is the group's first eligible address, and
        // ties between groups go to pool order, which keeps the choice
        // deterministic.
        std::size_t best = 0;
        for (std::size_t id = 0; id < groups; ++id) {
          if (class_of_id[id] >= 0 || bucket_live[id] < best) continue;
          const std::size_t* const b = bucket_pool.data() + bucket_begin[id];
          for (std::size_t k = 0; k < bucket_len[id]; ++k) {
            const std::size_t i = b[k];
            if (assigned_class[i] >= 0 || exhausted[i] ||
                founder_blocked[i]) {
              continue;
            }
            if (bucket_live[id] > best || i < pick) {
              best = bucket_live[id];
              pick = i;
            }
            break;
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
        founder_ran = true;
        const std::uint64_t pivot = pool[pick];
        partners.clear();
        partner_idx.clear();
        const auto add_partner = [&](std::size_t i) {
          if (i == pick) return;
          partners.push_back(pool[i]);
          partner_idx.push_back(i);
        };
        if (trusted) {
          for (const std::size_t i : live_bucket(ids[pick])) add_partner(i);
        } else {
          for (std::size_t i = 0; i < n; ++i) {
            if (assigned_class[i] < 0) add_partner(i);
          }
        }
        scan_options opts = founder_opts;
        if (trusted) {
          ++out.group_founder_scans;
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
              if (trusted) out.predicted_assignments += member_count + 1;
              prediction_dirty = true;
            }
          }
        }
      }
    }

    if (vote_pairs.empty() && free_this_round == 0 && !founder_ran) {
      break;  // nothing left to try: stragglers beyond the ladder
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
