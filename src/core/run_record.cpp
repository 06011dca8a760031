#include "core/run_record.h"

#include <algorithm>
#include <utility>

#include "util/json.h"

namespace dramdig::core {

void tool_result::to_json(json_writer& w) const {
  w.begin_object();
  w.key("tool").value(tool);
  w.key("success").value(success);
  w.key("verified").value(verified);
  w.key("outcome").value(outcome);
  w.key("failure_reason").value(failure_reason);
  w.key("detail").value(detail);
  w.key("virtual_seconds").value(virtual_seconds);
  w.key("measurement_count").value(measurement_count);
  w.key("measurements_saved").value(measurements_saved);
  w.key("access_count").value(access_count);
  w.key("pool_size").value(pool_size);
  w.key("assumed_bank_count").value(assumed_bank_count);
  w.key("threshold_ns").value(threshold_ns);
  w.key("mapping");
  if (mapping) {
    w.begin_object();
    w.key("functions").value(mapping->describe_functions());
    w.key("row_bits").value(dram::describe_bit_ranges(mapping->row_bits()));
    w.key("column_bits")
        .value(dram::describe_bit_ranges(mapping->column_bits()));
    w.end_object();
  } else {
    w.null_value();
  }
  w.key("phases").begin_array();
  for (const tool_phase& p : phases) {
    w.begin_object();
    w.key("name").value(p.name);
    w.key("seconds").value(p.seconds);
    w.key("measurements").value(p.measurements);
    w.key("pairs_used").value(p.pairs_used);
    w.end_object();
  }
  w.end_array();
  w.key("probe_rounds").begin_object();
  w.key("experiments").value(probe_rounds.experiments);
  w.key("rounds").value(probe_rounds.rounds);
  w.key("votes_cast").value(probe_rounds.votes_cast);
  w.key("votes_saved").value(probe_rounds.votes_saved);
  w.key("shared_base_votes").value(probe_rounds.shared_base_votes);
  w.key("reused_votes").value(probe_rounds.reused_votes);
  w.end_object();
  w.end_object();
}

std::string tool_result::to_json_string() const {
  json_writer w;
  to_json(w);
  return w.str();
}

run_meter::run_meter(sim::memory_controller& mc, phase_callback notify)
    : mc_(mc), notify_(std::move(notify)), t0_(mc.clock().now_ns()),
      m0_(mc.measurement_count()), a0_(mc.access_count()) {}

run_meter::scope::scope(run_meter& meter, std::string_view name)
    : meter_(meter), name_(name), t0_(meter.mc_.clock().now_ns()),
      m0_(meter.mc_.measurement_count()) {}

run_meter::scope::~scope() {
  sim::memory_controller& mc = meter_.mc_;
  const phase_stats delta{mc.clock().seconds_since(t0_),
                          mc.measurement_count() - m0_, pairs_used_};
  auto& phases = meter_.phases_;
  const auto it = std::ranges::find(phases, name_, &tool_phase::name);
  tool_phase& total = it != phases.end()
                          ? *it
                          : phases.emplace_back(tool_phase{std::string(name_)});
  total.seconds += delta.seconds;
  total.measurements += delta.measurements;
  total.pairs_used += delta.pairs_used;
  if (meter_.notify_) meter_.notify_(name_, delta);
}

tool_phase run_meter::phase(std::string_view name) const {
  const auto it = std::ranges::find(phases_, name, &tool_phase::name);
  return it != phases_.end() ? *it : tool_phase{std::string(name)};
}

run_totals run_meter::totals() const {
  return {mc_.clock().seconds_since(t0_), mc_.measurement_count() - m0_,
          mc_.access_count() - a0_};
}

void run_meter::finish(tool_result& out) const {
  const run_totals t = totals();
  out.virtual_seconds = t.seconds;
  out.measurement_count = t.measurements;
  out.access_count = t.accesses;
}

}  // namespace dramdig::core
