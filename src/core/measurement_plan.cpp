#include "core/measurement_plan.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "util/expect.h"

namespace dramdig::core {

namespace {

/// Canonical (unordered) key for a pair: SBDR is symmetric.
sim::addr_pair canonical(std::uint64_t a, std::uint64_t b) {
  return a <= b ? sim::addr_pair{a, b} : sim::addr_pair{b, a};
}

constexpr double kNoPrior = std::numeric_limits<double>::quiet_NaN();

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

int measurement_plan::memo_find(std::uint64_t a, std::uint64_t b) const {
  const sim::addr_pair key = canonical(a, b);
  return idx_.memo_find(key.first, key.second);
}

void measurement_plan::memo_store(std::uint64_t a, std::uint64_t b, char val) {
  const sim::addr_pair key = canonical(a, b);
  idx_.memo_store(key.first, key.second, val);
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
  // list doubles as the exact-pair memo. No dedupe needed: scans only
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
      if (memo_find(in_class[i], in_class[j]) > 0) {
        // Memoize the derived fact as an exact-pair negative so future
        // queries answer from the pair set.
        record_negative(pivot, x);
        return true;
      }
    }
  }
  return false;
}

void measurement_plan::verify_strict(std::span<const sim::addr_pair> pairs,
                                     std::span<const double> prior,
                                     std::vector<char>& out) {
  DRAMDIG_EXPECTS(channel_.calibrated());
  DRAMDIG_EXPECTS(prior.empty() || prior.size() == pairs.size());
  const unsigned full = channel_.strict_samples();
  // One fresh sample per pair is replaced by the caller's prior (the fast
  // scan's reading of the very same pair). The prior is conditioned
  // positive, so the min filter keeps full-1 refutation chances instead of
  // full: a contaminated cross-bank pair survives with probability
  // q^(full-1) instead of q^full (q = contamination rate). Negligible at
  // the modeled rates (q <= 0.04 steady state: < 7e-6 per candidate), and
  // the pile delta window plus the numbering check backstop the burst
  // regime — in exchange every scan saves one measurement per verified
  // member.
  std::vector<unsigned>& fresh = scratch_.fresh_counts;
  fresh.assign(pairs.size(), full);
  if (!prior.empty()) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (prior[i] == prior[i]) {  // non-NaN: a sample exists to reuse
        fresh[i] = full - 1;
        ++stats_.measurements_saved;
      }
    }
  }
  std::vector<sim::addr_pair>& expanded = scratch_.expanded;
  expanded.clear();
  expanded.reserve(pairs.size() * full);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (unsigned k = 0; k < fresh[i]; ++k) expanded.push_back(pairs[i]);
  }
  std::vector<double>& latencies = scratch_.expanded_lat;
  channel_.measure_batch(expanded, latencies);
  stats_.measurements_issued += expanded.size();

  out.resize(pairs.size());
  std::size_t at = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    double lowest = fresh[i] < full ? prior[i] : 1e300;
    for (unsigned k = 0; k < fresh[i]; ++k) {
      lowest = std::min(lowest, latencies[at++]);
    }
    out[i] = lowest > channel_.threshold_ns() ? 1 : 0;
  }
}

measurement_plan::probe_outcome measurement_plan::probe_pairs(
    std::span<const sim::addr_pair> pairs) {
  DRAMDIG_EXPECTS(channel_.calibrated());
  probe_outcome out;
  out.sbdr.assign(pairs.size(), 0);
  if (pairs.empty()) return out;

  // ---- Stage 0: answer from the cache. ----------------------------------
  // Exact strict verdicts reuse verbatim; cross-pile proofs imply not-SBDR.
  std::vector<std::size_t>& unknown_idx = scratch_.unknown_idx;
  unknown_idx.clear();
  unknown_idx.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& [a, b] = pairs[i];
    const int hit = memo_find(a, b);
    if (hit >= 0) {
      out.sbdr[i] = static_cast<char>(hit);
      ++out.reused;
      // What re-measuring in place would cost: a positive takes the full
      // strict pass, a negative one fast sample.
      stats_.measurements_saved += hit != 0 ? channel_.strict_samples() : 1;
      continue;
    }
    if (known_cross(a, b) || known_cross(b, a)) {
      ++out.reused;
      ++stats_.measurements_saved;
      continue;
    }
    unknown_idx.push_back(i);
  }
  if (unknown_idx.empty()) return out;

  // ---- Stage 1: one single sample per unknown pair. ---------------------
  // Noise is one-sided (events only inflate latency), so a fast sample is
  // already a proof: the strict min filter could only go lower. Slow
  // samples may be contamination and graduate to strict verification.
  std::vector<sim::addr_pair>& fresh = scratch_.pairs;
  fresh.clear();
  fresh.reserve(unknown_idx.size());
  for (const std::size_t i : unknown_idx) fresh.push_back(pairs[i]);
  std::vector<double>& fast = scratch_.fast;
  channel_.measure_batch(fresh, fast);
  stats_.measurements_issued += fresh.size();

  std::vector<sim::addr_pair>& candidates = scratch_.candidates;
  std::vector<std::size_t>& candidate_idx = scratch_.candidate_idx;
  std::vector<double>& prior = scratch_.prior;
  candidates.clear();
  candidate_idx.clear();
  prior.clear();
  for (std::size_t j = 0; j < unknown_idx.size(); ++j) {
    const std::size_t i = unknown_idx[j];
    if (fast[j] > channel_.threshold_ns()) {
      candidates.push_back(fresh[j]);
      candidate_idx.push_back(i);
      prior.push_back(fast[j]);
    } else {
      memo_store(pairs[i].first, pairs[i].second, 0);
      record_negative(pairs[i].first, pairs[i].second);
    }
  }

  // ---- Stage 2: strict-verify the slow readings, folding the sample. ----
  std::vector<char>& strict = scratch_.strict;
  verify_strict(candidates, prior, strict);
  for (std::size_t j = 0; j < strict.size(); ++j) {
    const std::size_t i = candidate_idx[j];
    const auto& [a, b] = pairs[i];
    memo_store(a, b, strict[j]);
    if (strict[j]) {
      out.sbdr[i] = 1;
      record_same_bank(a, b);
    } else {
      record_negative(a, b);
    }
  }
  return out;
}

std::size_t measurement_plan::class_root(std::uint64_t addr) {
  const std::size_t n = node_if_known(addr);
  if (n == npos) return no_class;
  return cached_root(n);
}

bool measurement_plan::known_strict_positive(std::uint64_t a,
                                             std::uint64_t b) const {
  return memo_find(a, b) > 0;
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

  // ---- Stage 1: one single-sample batch over the unknown pairs. ---------
  std::vector<sim::addr_pair>& fresh = scratch_.pairs;
  fresh.clear();
  fresh.reserve(unknown_idx.size());
  for (const std::size_t i : unknown_idx) fresh.push_back(pairs[i]);
  std::vector<double>& fast = scratch_.fast;
  channel_.measure_batch(fresh, fast);
  stats_.measurements_issued += fresh.size();

  std::vector<sim::addr_pair>& candidates = scratch_.candidates;
  std::vector<std::size_t>& candidate_idx = scratch_.candidate_idx;
  std::vector<double>& prior = scratch_.prior;
  candidates.clear();
  candidate_idx.clear();
  prior.clear();
  for (std::size_t j = 0; j < unknown_idx.size(); ++j) {
    if (fast[j] > channel_.threshold_ns()) {
      candidates.push_back(fresh[j]);
      candidate_idx.push_back(unknown_idx[j]);
      prior.push_back(fast[j]);
    } else {
      record_negative(pairs[unknown_idx[j]].first,
                      pairs[unknown_idx[j]].second);
    }
  }
  if (!verify_positives) {
    for (const std::size_t i : candidate_idx) out.member[i] = 1;
    return out;
  }

  // ---- Stage 2: strict-verify the positives, folding the vote sample. ---
  std::vector<char>& strict = scratch_.strict;
  verify_strict(candidates, prior, strict);
  for (std::size_t j = 0; j < strict.size(); ++j) {
    const std::size_t i = candidate_idx[j];
    const auto& [anchor, subject] = pairs[i];
    if (strict[j]) {
      out.member[i] = 1;
      record_same_bank(anchor, subject);
      memo_store(anchor, subject, 1);
    } else {
      record_negative(anchor, subject);
    }
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
  //    root so each partner costs one lookup.
  // The list is copied up front: the loop below records negatives, and an
  // arena witness push invalidates every live span.
  std::unordered_map<std::size_t, std::vector<std::uint64_t>> rejecters;
  const bool have_rejected_by =
      witness_copy(pivot, scratch_.pivot_witness_buf);
  const std::vector<std::uint64_t>& rejected_by = scratch_.pivot_witness_buf;
  if (have_rejected_by) {
    for (const std::uint64_t w : rejected_by) {
      const std::size_t wn = node_if_known(w);
      if (wn != npos) {
        rejecters[cached_root(wn)].push_back(w);
      }
    }
  }
  const auto reverse_cross = [&](std::size_t partner_root,
                                 std::uint64_t partner) {
    const auto hit = rejecters.find(partner_root);
    if (hit == rejecters.end() || hit->second.size() < 2) return false;
    const std::vector<std::uint64_t>& ws = hit->second;
    const std::size_t bound = std::min<std::size_t>(ws.size(), 12);
    for (std::size_t i = 0; i < bound; ++i) {
      for (std::size_t j = i + 1; j < bound; ++j) {
        if (memo_find(ws[i], ws[j]) > 0) {
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

  // Measure a subset of unknowns (single sample each, keeping the raw
  // latency so the strict pass can fold it into its min filter), record
  // the verdicts, and strict-verify the positives. Shared by the
  // pre-screen sample and the full scan.
  const auto scan_subset = [&](const std::vector<std::size_t>& subset)
      -> std::size_t {  // returns members found (post-verification)
    std::vector<sim::addr_pair>& pairs = scratch_.pairs;
    pairs.clear();
    pairs.reserve(subset.size());
    for (const std::size_t i : subset) pairs.emplace_back(pivot, partners[i]);
    std::vector<double>& fast = scratch_.fast;
    channel_.measure_batch(pairs, fast);
    stats_.measurements_issued += subset.size();
    std::vector<sim::addr_pair>& candidates = scratch_.candidates;
    std::vector<std::size_t>& candidate_idx = scratch_.candidate_idx;
    std::vector<double>& prior = scratch_.prior;
    candidates.clear();
    candidate_idx.clear();
    prior.clear();
    for (std::size_t j = 0; j < subset.size(); ++j) {
      if (fast[j] > channel_.threshold_ns()) {
        candidates.push_back(pairs[j]);
        candidate_idx.push_back(subset[j]);
        prior.push_back(fast[j]);
      } else {
        record_negative(pivot, partners[subset[j]]);
      }
    }
    if (!options.verify_positives) {
      for (const std::size_t i : candidate_idx) {
        out.member[i] = 1;
        ++members;
      }
      return candidates.size();
    }
    std::vector<char>& strict = scratch_.strict;
    verify_strict(candidates, prior, strict);
    std::size_t verified = 0;
    for (std::size_t j = 0; j < strict.size(); ++j) {
      const std::size_t i = candidate_idx[j];
      if (strict[j]) {
        out.member[i] = 1;
        ++members;
        ++verified;
        record_same_bank(pivot, partners[i]);
        memo_store(pivot, partners[i], 1);
      } else {
        // The fast positive was contamination; the min filter refuted it.
        record_negative(pivot, partners[i]);
      }
    }
    return verified;
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
        options.prescreen_z * rest *
            std::sqrt(rate * (1.0 - rate) /
                      static_cast<double>(sample.size())) +
        1.0;
    // Window on the final pile size (members + pivot).
    const double need_lo =
        std::max(0.0, options.window.lo - 1.0 - static_cast<double>(members));
    const double need_hi =
        options.window.hi - 1.0 - static_cast<double>(members);
    if (projected_rest - slack > need_hi || projected_rest + slack < need_lo) {
      ++stats_.prescreen_rejections;
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
