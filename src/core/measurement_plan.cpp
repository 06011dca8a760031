#include "core/measurement_plan.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/expect.h"

namespace dramdig::core {

namespace {

/// Canonical (unordered) key for a pair: SBDR is symmetric.
sim::addr_pair canonical(std::uint64_t a, std::uint64_t b) {
  return a <= b ? sim::addr_pair{a, b} : sim::addr_pair{b, a};
}

/// Confidence multiplier for the pivot pre-screen's binomial slack;
/// rejections only fire when the projection is wrong beyond z standard
/// deviations (plus one count of slack), so in-window pivots are almost
/// never lost.
constexpr double kPrescreenZ = 2.5;

}  // namespace

measurement_plan::measurement_plan(timing::channel& channel, plan_config config)
    : channel_(channel), config_(config) {}

void measurement_plan::warm_start(std::size_t expected_addresses) {
  if (expected_addresses == 0) return;
  idx_.reserve(expected_addresses);
  root_cache_.reserve(expected_addresses);
  root_stamp_.reserve(expected_addresses);
}

void measurement_plan::reset() {
  uf_ = union_find{};
  idx_.clear();
  // Node ids restart from zero: a bumped epoch keeps the root cache from
  // ever serving a pre-reset entry.
  ++root_epoch_;
}

std::size_t measurement_plan::node_of(std::uint64_t addr) {
  const std::size_t rec = idx_.find_or_create(addr);
  std::size_t n = idx_.node(rec);
  if (n == plan_index::npos) {
    n = uf_.make_set();
    idx_.set_node(rec, n);
  }
  return n;
}

std::size_t measurement_plan::node_if_known(std::uint64_t addr) const {
  const std::size_t rec = idx_.find(addr);
  return rec == plan_index::npos ? npos : idx_.node(rec);
}

std::size_t measurement_plan::cached_root(std::size_t node) {
  if (node >= root_cache_.size()) {
    root_cache_.resize(node + 1, 0);
    root_stamp_.resize(node + 1, 0);
  }
  if (root_stamp_[node] == root_epoch_) return root_cache_[node];
  const std::size_t root = uf_.find(node);
  root_cache_[node] = root;
  root_stamp_[node] = root_epoch_;
  return root;
}

bool measurement_plan::witness_copy(std::uint64_t addr,
                                    std::vector<std::uint64_t>& out) {
  out.clear();
  const std::size_t rec = idx_.find(addr);
  if (rec == plan_index::npos) return false;
  const std::span<const std::uint64_t> ws = idx_.witnesses(rec);
  if (ws.empty()) return false;  // a node-only record has no list yet
  out.assign(ws.begin(), ws.end());
  return true;
}

void measurement_plan::witness_touch(std::uint64_t addr, std::uint64_t pivot) {
  const std::size_t rec = idx_.find(addr);
  DRAMDIG_EXPECTS(rec != plan_index::npos);
  const std::span<const std::uint64_t> ws = idx_.witnesses(rec);
  for (std::size_t i = 0; i < ws.size(); ++i) {
    if (ws[i] == pivot) {
      idx_.witness_move_to_back(rec, i);
      return;
    }
  }
}

bool measurement_plan::known_strict_positive(std::uint64_t a,
                                             std::uint64_t b) const {
  const sim::addr_pair key = canonical(a, b);
  return idx_.memo_contains(key.first, key.second);
}

pair_relation measurement_plan::relation(std::uint64_t a, std::uint64_t b) {
  const std::size_t na = node_if_known(a);
  const std::size_t nb = node_if_known(b);
  if (na != npos && nb != npos && cached_root(na) == cached_root(nb)) {
    return pair_relation::same_bank;
  }
  if (known_cross(a, b) || known_cross(b, a)) return pair_relation::cross_pile;
  return pair_relation::unknown;
}

void measurement_plan::record_same_bank(std::uint64_t a, std::uint64_t b) {
  if (uf_.unite(node_of(a), node_of(b)).merged) {
    ++stats_.classes_merged;
    // A merge moves roots; invalidate the batch-level root cache.
    ++root_epoch_;
  }
}

void measurement_plan::record_negative(std::uint64_t pivot,
                                       std::uint64_t partner) {
  // Partner side only: the witness list stays "the pivots that rejected x",
  // one entry per scan, so every walk is a short linear scan — and the
  // list is the exact-pair negative memo (the pair memo holds strict
  // positives only). No dedupe needed: scans only
  // measure pairs the cache could not answer, so a recorded pair is
  // always new.
  const std::size_t rec = idx_.find_or_create(partner);
  if (config_.max_witnesses != 0 &&
      idx_.witnesses(rec).size() >= config_.max_witnesses) {
    // LRU eviction: the front is the entry that least recently answered a
    // query (hits rotate to the back).
    idx_.witness_pop_front(rec);
    ++stats_.witnesses_evicted;
  }
  idx_.witness_push(rec, pivot);
  ++stats_.negatives_recorded;
}

bool measurement_plan::known_cross(std::uint64_t pivot, std::uint64_t x) {
  // Work on a copy of x's list: arena spans die on any witness push, and
  // the derivation below records negatives. The copy is scratch-backed.
  std::vector<std::uint64_t>& ws = scratch_.witness_buf;
  if (!witness_copy(x, ws)) return false;
  // Exact pair measured (or previously derived): reuse that verdict. The
  // hit rotates to the back of the list so LRU eviction drops stale
  // entries first.
  for (const std::uint64_t w : ws) {
    if (w == pivot) {
      witness_touch(x, pivot);
      return true;
    }
  }
  // Two witnesses in pivot's class that are SBDR-positive with each other
  // sit in two different rows of one bank; x cannot share a row with both,
  // so both negatives can only mean a different bank. A fresh pivot
  // (singleton class) cannot have class witnesses — skip the class walk.
  const std::size_t pivot_node = node_if_known(pivot);
  if (pivot_node == npos) return false;
  if (uf_.class_size(pivot_node) < 2) return false;
  const std::size_t pivot_root = cached_root(pivot_node);
  // Fixed-capacity gather: this runs once per unknown partner in every
  // pivot scan, so no per-call heap allocation.
  std::array<std::uint64_t, 12> in_class_buf;
  std::size_t found = 0;
  for (const std::uint64_t w : ws) {
    const std::size_t wn = node_if_known(w);
    if (wn != npos && cached_root(wn) == pivot_root) {
      in_class_buf[found++] = w;
      if (found == in_class_buf.size()) break;  // bound the pairwise search
    }
  }
  const std::span<const std::uint64_t> in_class(in_class_buf.data(), found);
  for (std::size_t i = 0; i < in_class.size(); ++i) {
    for (std::size_t j = i + 1; j < in_class.size(); ++j) {
      if (known_strict_positive(in_class[i], in_class[j])) {
        // Memoize the derived fact as an exact-pair negative so future
        // queries answer from the pair set.
        record_negative(pivot, x);
        return true;
      }
    }
  }
  return false;
}

const std::vector<char>& measurement_plan::measure_and_record(
    std::span<const sim::addr_pair> pairs, bool verify_positives) {
  // ---- One single sample per pair. --------------------------------------
  // Noise is one-sided (events only inflate latency), so a fast sample is
  // already a proof: the strict min filter could only go lower. Slow
  // samples may be contamination and graduate to strict verification.
  std::vector<double>& fast = scratch_.fast;
  channel_.measure_batch(pairs, fast);
  stats_.measurements_issued += pairs.size();

  std::vector<char>& verdict = scratch_.verdict;
  verdict.assign(pairs.size(), 0);
  std::vector<sim::addr_pair>& candidates = scratch_.candidates;
  std::vector<std::size_t>& candidate_idx = scratch_.candidate_idx;
  std::vector<double>& prior = scratch_.prior;
  candidates.clear();
  candidate_idx.clear();
  prior.clear();
  for (std::size_t j = 0; j < pairs.size(); ++j) {
    if (fast[j] > channel_.threshold_ns()) {
      candidates.push_back(pairs[j]);
      candidate_idx.push_back(j);
      prior.push_back(fast[j]);
    } else {
      record_negative(pairs[j].first, pairs[j].second);
    }
  }
  if (!verify_positives) {
    for (const std::size_t j : candidate_idx) verdict[j] = 1;
    return verdict;
  }

  // ---- Strict-verify the slow readings, folding the sample. -------------
  // Each candidate's scan reading stands in for one of its strict samples.
  // The reading is conditioned positive, so the min filter keeps
  // strict_samples() - 1 refutation chances instead of strict_samples(): a
  // contaminated cross-bank pair survives with probability q^4 instead of
  // q^5 (q = contamination rate). Negligible at the modeled rates (q <=
  // 0.04 steady state: < 3e-6 per candidate), and the pile delta window
  // plus the numbering check backstop the burst regime — in exchange every
  // scan saves one measurement per verified member.
  std::vector<char>& strict = scratch_.strict;
  channel_.is_sbdr_strict_batch(candidates, prior, strict);
  stats_.measurements_issued +=
      candidates.size() * (channel_.strict_samples() - 1);
  stats_.measurements_saved += candidates.size();
  for (std::size_t k = 0; k < strict.size(); ++k) {
    const auto& [a, b] = candidates[k];
    if (strict[k]) {
      verdict[candidate_idx[k]] = 1;
      record_same_bank(a, b);
      const sim::addr_pair key = canonical(a, b);
      idx_.memo_insert(key.first, key.second);
    } else {
      // The slow reading was contamination; the min filter refuted it.
      record_negative(a, b);
    }
  }
  return verdict;
}

measurement_plan::probe_outcome measurement_plan::probe_pairs(
    std::span<const sim::addr_pair> pairs) {
  DRAMDIG_EXPECTS(channel_.calibrated());
  probe_outcome out;
  out.sbdr.assign(pairs.size(), 0);
  if (pairs.empty()) return out;

  // ---- Stage 0: answer from the cache. ----------------------------------
  // Strict positives reuse the memo verbatim; cross-pile proofs (every
  // measured negative sits on a witness list) imply not-SBDR.
  std::vector<std::size_t>& unknown_idx = scratch_.unknown_idx;
  unknown_idx.clear();
  unknown_idx.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& [a, b] = pairs[i];
    if (known_strict_positive(a, b)) {
      out.sbdr[i] = 1;
      ++out.reused;
      // What re-measuring in place would cost: the full strict pass.
      stats_.measurements_saved += channel_.strict_samples();
      continue;
    }
    if (known_cross(a, b) || known_cross(b, a)) {
      ++out.reused;
      ++stats_.measurements_saved;  // one fast sample
      continue;
    }
    unknown_idx.push_back(i);
  }
  if (unknown_idx.empty()) return out;

  // ---- Stage 1: measure, strict-verify and record the unknown pairs. ----
  std::vector<sim::addr_pair>& fresh = scratch_.pairs;
  fresh.clear();
  fresh.reserve(unknown_idx.size());
  for (const std::size_t i : unknown_idx) fresh.push_back(pairs[i]);
  const std::vector<char>& verdict = measure_and_record(fresh, true);
  for (std::size_t j = 0; j < unknown_idx.size(); ++j) {
    out.sbdr[unknown_idx[j]] = verdict[j];
  }
  return out;
}

std::size_t measurement_plan::class_root(std::uint64_t addr) {
  const std::size_t n = node_if_known(addr);
  if (n == npos) return no_class;
  return cached_root(n);
}

measurement_plan::vote_outcome measurement_plan::classify_pairs(
    std::span<const sim::addr_pair> pairs, bool verify_positives) {
  DRAMDIG_EXPECTS(channel_.calibrated());
  vote_outcome out;
  out.member.assign(pairs.size(), 0);
  if (pairs.empty()) return out;

  // ---- Stage 0: answer what the cache already implies. ------------------
  std::vector<std::size_t>& unknown_idx = scratch_.unknown_idx;
  unknown_idx.clear();
  unknown_idx.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    switch (relation(pairs[i].first, pairs[i].second)) {
      case pair_relation::same_bank:
        out.member[i] = 1;
        ++out.reused;
        stats_.measurements_saved += saved_scan_credit(verify_positives);
        break;
      case pair_relation::cross_pile:
        ++out.reused;
        ++stats_.measurements_saved;
        break;
      case pair_relation::unknown:
        unknown_idx.push_back(i);
        break;
    }
  }
  if (unknown_idx.empty()) return out;

  // ---- Stage 1: measure, verify and record the unknown pairs. -----------
  std::vector<sim::addr_pair>& fresh = scratch_.pairs;
  fresh.clear();
  fresh.reserve(unknown_idx.size());
  for (const std::size_t i : unknown_idx) fresh.push_back(pairs[i]);
  const std::vector<char>& verdict =
      measure_and_record(fresh, verify_positives);
  for (std::size_t j = 0; j < unknown_idx.size(); ++j) {
    out.member[unknown_idx[j]] = verdict[j];
  }
  return out;
}

measurement_plan::scan_outcome measurement_plan::classify_partners(
    std::uint64_t pivot, std::span<const std::uint64_t> partners,
    const scan_options& options) {
  DRAMDIG_EXPECTS(channel_.calibrated());
  scan_outcome out;
  out.member.assign(partners.size(), 0);

  // ---- Stage 0: answer what the cache already implies. ------------------
  // Directional queries only: a partner's witness list is short (one entry
  // per scan that rejected it), while the pivot's own list covers
  // everything it ever scanned — walking the latter per partner would make
  // this stage quadratic in the pool.
  const std::size_t pivot_node = node_if_known(pivot);
  const std::size_t pivot_root =
      pivot_node != npos ? cached_root(pivot_node) : 0;

  // The pivot's own witness list (pivots that rejected it while it was a
  // partner — short by construction) answers two queries per scan:
  //  * exact pairs in the reverse direction (a former pivot among the
  //    partners that once rejected this pivot), via `rejected_by`;
  //  * the reverse two-witness rule: if two SBDR-positive-linked
  //    (row-distinct) members of a partner's class rejected this pivot
  //    earlier, the pivot provably sits in another bank. Grouped by class
  //    root (a stable sort keeps each root's witnesses in list order), so
  //    each partner costs one binary search.
  // The list is copied up front: the loop below records negatives, and an
  // arena witness push invalidates every live span.
  const bool have_rejected_by =
      witness_copy(pivot, scratch_.pivot_witness_buf);
  const std::vector<std::uint64_t>& rejected_by = scratch_.pivot_witness_buf;
  std::vector<std::pair<std::size_t, std::uint64_t>>& rejecters =
      scratch_.rejecters;
  const auto by_root = [](const auto& x, const auto& y) {
    return x.first < y.first;
  };
  rejecters.clear();
  if (have_rejected_by) {
    for (const std::uint64_t w : rejected_by) {
      const std::size_t wn = node_if_known(w);
      if (wn != npos) rejecters.emplace_back(cached_root(wn), w);
    }
    std::stable_sort(rejecters.begin(), rejecters.end(), by_root);
  }
  const auto reverse_cross = [&](std::size_t partner_root,
                                 std::uint64_t partner) {
    const auto [first, last] = std::equal_range(
        rejecters.begin(), rejecters.end(),
        std::pair<std::size_t, std::uint64_t>{partner_root, 0}, by_root);
    const std::ptrdiff_t bound = std::min<std::ptrdiff_t>(last - first, 12);
    for (std::ptrdiff_t i = 0; i < bound; ++i) {
      for (std::ptrdiff_t j = i + 1; j < bound; ++j) {
        if (known_strict_positive(first[i].second, first[j].second)) {
          // Memoize the derived fact as an exact-pair negative.
          record_negative(pivot, partner);
          return true;
        }
      }
    }
    return false;
  };

  std::vector<std::size_t>& unknown_idx = scratch_.unknown_idx;
  unknown_idx.clear();
  unknown_idx.reserve(partners.size());
  std::size_t members = 0;
  for (std::size_t i = 0; i < partners.size(); ++i) {
    const std::size_t partner_node = node_if_known(partners[i]);
    const std::size_t partner_root =
        partner_node != npos ? cached_root(partner_node) : 0;
    if (pivot_node != npos && partner_node != npos &&
        partner_root == pivot_root) {
      out.member[i] = 1;
      ++members;
      ++out.reused;
      // What re-measuring this member in place would cost.
      stats_.measurements_saved += saved_scan_credit(options.verify_positives);
    } else if (known_cross(pivot, partners[i]) ||
               (have_rejected_by &&
                std::find(rejected_by.begin(), rejected_by.end(),
                          partners[i]) != rejected_by.end()) ||
               (partner_node != npos &&
                reverse_cross(partner_root, partners[i]))) {
      ++out.reused;
      ++stats_.measurements_saved;
    } else {
      unknown_idx.push_back(i);
    }
  }

  // Measure, verify and record a subset of unknowns; returns the members
  // found. Shared by the pre-screen sample and the full scan.
  const auto scan_subset = [&](const std::vector<std::size_t>& subset) {
    std::vector<sim::addr_pair>& pairs = scratch_.pairs;
    pairs.clear();
    pairs.reserve(subset.size());
    for (const std::size_t i : subset) pairs.emplace_back(pivot, partners[i]);
    const std::vector<char>& verdict =
        measure_and_record(pairs, options.verify_positives);
    std::size_t found = 0;
    for (std::size_t j = 0; j < subset.size(); ++j) {
      if (!verdict[j]) continue;
      out.member[subset[j]] = 1;
      ++found;
    }
    members += found;
    return found;
  };

  // ---- Stage 1: adaptive pivot pre-screen. ------------------------------
  // Sample enough unknowns to project the pile size; if the projection
  // falls outside the acceptance window beyond sampling error, reject the
  // pivot without paying for the full scan. The sample grows with the
  // unknown count so the binomial slack stays decisive on large pools.
  std::vector<char>& sampled = scratch_.sampled;
  sampled.assign(partners.size(), 0);
  bool any_sampled = false;
  if (options.prescreen_sample > 0 &&
      unknown_idx.size() >= 4ull * options.prescreen_sample) {
    const std::size_t n = std::max<std::size_t>(options.prescreen_sample,
                                                unknown_idx.size() / 8);
    std::vector<std::size_t>& sample = scratch_.sample;
    sample.clear();
    sample.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = unknown_idx[j * unknown_idx.size() / n];
      sample.push_back(i);
      sampled[i] = 1;
    }
    any_sampled = true;
    // Project from the post-verification member rate: the raw fast-positive
    // rate rides up with contamination during a burst and would reject
    // in-window pivots.
    const std::size_t sample_members = scan_subset(sample);

    const double rest =
        static_cast<double>(unknown_idx.size() - sample.size());
    const double rate = (static_cast<double>(sample_members) + 0.5) /
                        (static_cast<double>(sample.size()) + 1.0);
    const double projected_rest = rest * rate;
    const double slack =
        kPrescreenZ * rest *
            std::sqrt(rate * (1.0 - rate) /
                      static_cast<double>(sample.size())) +
        1.0;
    // Window on the final pile size (members + pivot).
    const double need_lo =
        std::max(0.0, options.window.lo - 1.0 - static_cast<double>(members));
    const double need_hi =
        options.window.hi - 1.0 - static_cast<double>(members);
    if (projected_rest - slack > need_hi || projected_rest + slack < need_lo) {
      stats_.measurements_saved +=
          static_cast<std::uint64_t>(rest);  // the skipped fast scan
      out.prescreen_rejected = true;
      return out;
    }
  }

  // ---- Stage 2: full scan of the remaining unknowns. --------------------
  std::vector<std::size_t>& remaining = scratch_.remaining;
  remaining.clear();
  remaining.reserve(unknown_idx.size());
  for (const std::size_t i : unknown_idx) {
    if (!any_sampled || !sampled[i]) remaining.push_back(i);
  }
  (void)scan_subset(remaining);
  return out;
}

}  // namespace dramdig::core
