#include "core/measurement_plan.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/expect.h"

namespace dramdig::core {

namespace {

/// Confidence multiplier for the pivot pre-screen's binomial slack;
/// rejections only fire when the projection is wrong beyond z standard
/// deviations (plus one count of slack), so in-window pivots are almost
/// never lost.
constexpr double kPrescreenZ = 2.5;

/// How many pairs ahead measure_and_record prefetches table slots.
constexpr std::size_t kPrefetchAhead = 8;

}  // namespace

measurement_plan::measurement_plan(timing::channel& channel)
    : channel_(channel) {}

void measurement_plan::reserve(std::size_t addresses) {
  idx_.reserve(addresses);
  uf_.reserve(addresses);
  root_cache_.reserve(addresses);
  root_stamp_.reserve(addresses);
}

void measurement_plan::reset() {
  uf_.clear();
  idx_.clear();
  // Node ids restart from zero: a bumped epoch keeps the root cache from
  // ever serving a pre-reset entry.
  ++root_epoch_;
}

std::size_t measurement_plan::node_of(rec_id rec) {
  const rec_id n = idx_.node(rec);
  if (n != none) return n;
  const std::size_t made = uf_.make_set();
  idx_.set_node(rec, made);
  return made;
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

bool measurement_plan::strict_positive(rec_id a, rec_id b) const {
  return a != none && b != none && idx_.memo_contains(a, b);
}

bool measurement_plan::known_strict_positive(std::uint64_t a,
                                             std::uint64_t b) const {
  return strict_positive(idx_.find(a), idx_.find(b));
}

pair_relation measurement_plan::relation_of(rec_id a, rec_id b) {
  const rec_id na = a != none ? idx_.node(a) : none;
  const rec_id nb = b != none ? idx_.node(b) : none;
  if (na != none && nb != none && cached_root(na) == cached_root(nb)) {
    return pair_relation::same_bank;
  }
  if (known_cross(a, b) || known_cross(b, a)) return pair_relation::cross_pile;
  return pair_relation::unknown;
}

pair_relation measurement_plan::relation(std::uint64_t a, std::uint64_t b) {
  return relation_of(idx_.find(a), idx_.find(b));
}

void measurement_plan::record_same_bank(rec_id a, rec_id b) {
  if (uf_.unite(node_of(a), node_of(b)).merged) {
    ++stats_.classes_merged;
    // A merge moves roots; invalidate the batch-level root cache.
    ++root_epoch_;
  }
  idx_.memo_insert(a, b);
}

void measurement_plan::record_negative(rec_id pivot, rec_id partner) {
  // Partner side only: the witness list stays "the pivots that rejected x",
  // one entry per scan, so every walk is a short linear scan — and the
  // list is the exact-pair negative memo (the pair memo holds strict
  // positives only). No dedupe needed: scans only
  // measure pairs the cache could not answer, so a recorded pair is
  // always new.
  idx_.witness_push(partner, pivot);
  ++stats_.negatives_recorded;
}

bool measurement_plan::known_cross(rec_id pivot, rec_id x) {
  // A pivot never seen has no node and sits on no list.
  if (pivot == none || x == none) return false;
  const std::span<const rec_id> ws = idx_.witnesses(x);
  if (ws.empty()) return false;
  // Exact pair measured (or previously derived): reuse that verdict.
  if (std::find(ws.begin(), ws.end(), pivot) != ws.end()) return true;
  // Two witnesses in pivot's class that are SBDR-positive with each other
  // sit in two different rows of one bank; x cannot share a row with both,
  // so both negatives can only mean a different bank. A fresh pivot
  // (singleton class) cannot have class witnesses — skip the class walk.
  const rec_id pivot_node = idx_.node(pivot);
  if (pivot_node == none) return false;
  if (uf_.class_size(pivot_node) < 2) return false;
  const std::size_t pivot_root = cached_root(pivot_node);
  // Fixed-capacity gather: this runs once per unknown partner in every
  // pivot scan, so no per-call heap allocation. The gather is a copy, so
  // the record_negative below cannot invalidate it.
  std::array<rec_id, 12> in_class_buf;
  std::size_t found = 0;
  for (const rec_id w : ws) {
    const rec_id wn = idx_.node(w);
    if (wn != none && cached_root(wn) == pivot_root) {
      in_class_buf[found++] = w;
      if (found == in_class_buf.size()) break;  // bound the pairwise search
    }
  }
  for (std::size_t i = 0; i < found; ++i) {
    for (std::size_t j = i + 1; j < found; ++j) {
      if (idx_.memo_contains(in_class_buf[i], in_class_buf[j])) {
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
    std::span<const sim::addr_pair> pairs, std::span<rec_pair> recs,
    bool verify_positives) {
  // ---- One single sample per pair. --------------------------------------
  // Noise is one-sided (events only inflate latency), so a fast sample is
  // already a proof: the strict min filter could only go lower. Slow
  // samples may be contamination and graduate to strict verification.
  std::vector<double>& fast = scratch_.fast;
  channel_.measure_batch(pairs, fast);
  stats_.measurements_issued += pairs.size();

  // Resolve the records of every pair whose verdict gets recorded — all of
  // them when positives are verified, the fast ones otherwise — each
  // address once. Scans and vote rounds repeat one pivot (or a few
  // anchors) across the batch, so the last first-address resolved is
  // reused instead of hashed again, and unresolved addresses' slots are
  // prefetched a few pairs ahead so consecutive probes overlap.
  const double threshold = channel_.threshold_ns();
  std::uint64_t last_first = 0;
  rec_id last_first_rec = none;
  for (std::size_t j = 0; j < pairs.size(); ++j) {
    if (j + kPrefetchAhead < pairs.size()) {
      const rec_pair& ahead = recs[j + kPrefetchAhead];
      if (ahead.first == none) idx_.prefetch(pairs[j + kPrefetchAhead].first);
      if (ahead.second == none) {
        idx_.prefetch(pairs[j + kPrefetchAhead].second);
      }
    }
    if (!verify_positives && fast[j] > threshold) continue;
    rec_pair& r = recs[j];
    if (r.first == none) {
      if (last_first_rec == none || pairs[j].first != last_first) {
        last_first = pairs[j].first;
        last_first_rec = idx_.find_or_create(last_first);
      }
      r.first = last_first_rec;
    }
    if (r.second == none) r.second = idx_.find_or_create(pairs[j].second);
  }

  std::vector<char>& verdict = scratch_.verdict;
  verdict.assign(pairs.size(), 0);
  std::vector<sim::addr_pair>& candidates = scratch_.candidates;
  std::vector<std::size_t>& candidate_idx = scratch_.candidate_idx;
  std::vector<double>& prior = scratch_.prior;
  candidates.clear();
  candidate_idx.clear();
  prior.clear();
  for (std::size_t j = 0; j < pairs.size(); ++j) {
    if (fast[j] > threshold) {
      candidates.push_back(pairs[j]);
      candidate_idx.push_back(j);
      prior.push_back(fast[j]);
    } else {
      record_negative(recs[j].first, recs[j].second);
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
    if (k + kPrefetchAhead < strict.size() && strict[k + kPrefetchAhead]) {
      const rec_pair& ahead = recs[candidate_idx[k + kPrefetchAhead]];
      idx_.prefetch_memo(ahead.first, ahead.second);
    }
    const std::size_t j = candidate_idx[k];
    const rec_pair& r = recs[j];
    if (strict[k]) {
      verdict[j] = 1;
      record_same_bank(r.first, r.second);
    } else {
      // The slow reading was contamination; the min filter refuted it.
      record_negative(r.first, r.second);
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
  std::vector<rec_pair>& recs = scratch_.pair_recs;
  unknown_idx.clear();
  recs.clear();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const rec_id a = idx_.find(pairs[i].first);
    const rec_id b = idx_.find(pairs[i].second);
    if (strict_positive(a, b)) {
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
    recs.emplace_back(a, b);
  }
  if (unknown_idx.empty()) return out;

  // ---- Stage 1: measure, strict-verify and record the unknown pairs. ----
  std::vector<sim::addr_pair>& fresh = scratch_.pairs;
  fresh.clear();
  for (const std::size_t i : unknown_idx) fresh.push_back(pairs[i]);
  const std::vector<char>& verdict = measure_and_record(fresh, recs, true);
  for (std::size_t j = 0; j < unknown_idx.size(); ++j) {
    out.sbdr[unknown_idx[j]] = verdict[j];
  }
  return out;
}

std::size_t measurement_plan::class_root(std::uint64_t addr) {
  const rec_id rec = idx_.find(addr);
  const rec_id n = rec != none ? idx_.node(rec) : none;
  if (n == none) return no_class;
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
  std::vector<rec_pair>& recs = scratch_.pair_recs;
  unknown_idx.clear();
  recs.clear();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const rec_id a = idx_.find(pairs[i].first);
    const rec_id b = idx_.find(pairs[i].second);
    switch (relation_of(a, b)) {
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
        recs.emplace_back(a, b);
        break;
    }
  }
  if (unknown_idx.empty()) return out;

  // ---- Stage 1: measure, verify and record the unknown pairs. -----------
  std::vector<sim::addr_pair>& fresh = scratch_.pairs;
  fresh.clear();
  for (const std::size_t i : unknown_idx) fresh.push_back(pairs[i]);
  const std::vector<char>& verdict =
      measure_and_record(fresh, recs, verify_positives);
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
  // Each partner's record as stage 0 found it (none: never seen).
  std::vector<rec_id>& partner_recs = scratch_.partner_recs;
  partner_recs.assign(partners.size(), none);
  std::vector<std::size_t>& unknown_idx = scratch_.unknown_idx;
  unknown_idx.clear();
  std::size_t members = 0;

  // ---- Stage 0: answer what the cache already implies. ------------------
  // Directional queries only: a partner's witness list is short (one entry
  // per scan that rejected it), while the pivot's own list covers
  // everything it ever scanned — walking the latter per partner would make
  // this stage quadratic in the pool.
  //
  // The pivot's own witness list (pivots that rejected it while it was a
  // partner — short by construction) answers two queries per scan:
  //  * exact pairs in the reverse direction (a former pivot among the
  //    partners that once rejected this pivot), read off the list's
  //    addresses (`rejected_by`);
  //  * the reverse two-witness rule: if two SBDR-positive-linked
  //    (row-distinct) members of a partner's class rejected this pivot
  //    earlier, the pivot provably sits in another bank. The rule depends
  //    on the partner only through its class root, so the roots it proves
  //    (`linked_roots`) are found once per scan: the list grouped by class
  //    root (a stable sort keeps each root's witnesses in list order),
  //    each group's first 12 searched for a memo-linked pair.
  // Both are copied out up front: the loop below records negatives, and
  // an arena witness push invalidates every live span.
  const rec_id pivot_rec = idx_.find(pivot);
  const rec_id pivot_node = pivot_rec != none ? idx_.node(pivot_rec) : none;
  std::vector<std::uint64_t>& rejected_by = scratch_.rejected_by;
  std::vector<std::pair<std::size_t, rec_id>>& rejecters = scratch_.rejecters;
  std::vector<std::size_t>& linked_roots = scratch_.linked_roots;
  rejected_by.clear();
  rejecters.clear();
  linked_roots.clear();
  if (pivot_rec != none) {
    for (const rec_id w : idx_.witnesses(pivot_rec)) {
      rejected_by.push_back(idx_.addr(w));
      const rec_id wn = idx_.node(w);
      if (wn != none) rejecters.emplace_back(cached_root(wn), w);
    }
  }
  std::stable_sort(
      rejecters.begin(), rejecters.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; });
  for (std::size_t g = 0, end = 0; g < rejecters.size(); g = end) {
    while (end < rejecters.size() &&
           rejecters[end].first == rejecters[g].first) {
      ++end;
    }
    const std::size_t bound = std::min<std::size_t>(end - g, 12);
    bool linked = false;
    for (std::size_t i = 0; i < bound && !linked; ++i) {
      for (std::size_t j = i + 1; j < bound && !linked; ++j) {
        linked = idx_.memo_contains(rejecters[g + i].second,
                                    rejecters[g + j].second);
      }
    }
    if (linked) linked_roots.push_back(rejecters[g].first);
  }
  // Partners' records matter only to a pivot that shares a class (class
  // members, the two-witness rule), sits on some list (exact pairs) or
  // proves a reverse root. Any other pivot answers at most reverse exact
  // pairs, by address, and a fresh one (no list either) answers nothing:
  // its scan skips every lookup.
  const bool need_records =
      (pivot_node != none && uf_.class_size(pivot_node) >= 2) ||
      (pivot_rec != none && idx_.witnessed(pivot_rec)) ||
      !linked_roots.empty();
  const std::size_t pivot_root =
      pivot_node != none ? cached_root(pivot_node) : 0;
  for (std::size_t i = 0; i < partners.size(); ++i) {
    const rec_id prec = need_records ? idx_.find(partners[i]) : none;
    partner_recs[i] = prec;
    const rec_id partner_node = prec != none ? idx_.node(prec) : none;
    const std::size_t partner_root =
        partner_node != none ? cached_root(partner_node) : 0;
    if (pivot_node != none && partner_node != none &&
        partner_root == pivot_root) {
      out.member[i] = 1;
      ++members;
      ++out.reused;
      // What re-measuring this member in place would cost.
      stats_.measurements_saved += saved_scan_credit(options.verify_positives);
      continue;
    }
    bool cross = (prec != none && known_cross(pivot_rec, prec)) ||
                 std::find(rejected_by.begin(), rejected_by.end(),
                           partners[i]) != rejected_by.end();
    if (!cross && partner_node != none &&
        std::binary_search(linked_roots.begin(), linked_roots.end(),
                           partner_root)) {
      // Memoize the derived fact as an exact-pair negative.
      record_negative(pivot_rec, prec);
      cross = true;
    }
    if (cross) {
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
    std::vector<rec_pair>& recs = scratch_.pair_recs;
    pairs.clear();
    recs.clear();
    for (const std::size_t i : subset) {
      pairs.emplace_back(pivot, partners[i]);
      recs.emplace_back(pivot_rec, partner_recs[i]);
    }
    const std::vector<char>& verdict =
        measure_and_record(pairs, recs, options.verify_positives);
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
