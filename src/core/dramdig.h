// The DRAMDig tool: the paper's three-step pipeline wired together.
//
//   Step 1  coarse row/column detection          (coarse_detect)
//   Step 2  address selection + partition + bank function resolving
//           (address_selection, partition, function_detect)
//   Step 3  fine-grained shared-bit detection    (fine_detect)
//
// The tool only touches the machine through the timing channel and the
// simulated OS (mmap + pagemap + dmidecode/decode-dimms text); its
// tool_result carries the reverse-engineered mapping plus per-phase virtual
// time and measurement counts — the quantities behind Table II and Fig. 2.
//
// The channel budget is a constant in dramdig.cpp, and one default
// measurement plan serves every phase of a run; the config holds the
// paper's knobs and knowledge ablations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/address_selection.h"
#include "core/bit_probe.h"
#include "core/coarse_detect.h"
#include "core/environment.h"
#include "core/fine_detect.h"
#include "core/function_detect.h"
#include "core/measurement_plan.h"
#include "core/partition.h"
#include "core/run_record.h"
#include "dram/mapping.h"
#include "timing/channel.h"

namespace dramdig::core {

struct dramdig_config {
  /// Fraction of installed memory the tool maps (the real tool allocates
  /// most of free RAM so Algorithm 1 finds its contiguous range).
  double buffer_fraction = 0.55;
  partition_config partition{};
  /// Partition/function-resolution attempts before giving up (>= 1).
  unsigned max_attempts = 3;
  /// Fleet warm start (filled by the api layer from a mapping-store
  /// geometry hit — see src/store): the sibling's stored mapping is the
  /// one claim, and a geometry hit shares the machine's DIMM geometry, so
  /// a claim of k functions claims 2^k banks. The claim feeds every phase:
  /// its bank-function span seeds the classifier's knowledge-assisted
  /// prediction (bank_classifier::warm_start), so trusted vote ordering
  /// and group founder scans engage from round 0; the sibling threshold
  /// authorizes an early calibration stop once local estimates confirm it
  /// (0 = none, as on v1-era entries); the bit classification seeds
  /// coarse/fine vote priors; and when the claim has the function count
  /// system information gives, the stored functions stratify the
  /// partition pool to an exact per-predicted-bank quota. Hints are
  /// advisory: every assignment is still measurement-verified, a
  /// contradicted claim is dropped where it was refuted (prior per
  /// experiment; span and subsample on the attempt retry), and a failed
  /// attempt retries cold — so a wrong hint can cost measurements but
  /// never the recovered mapping.
  struct warm_hints {
    dram::address_mapping claim;  ///< the sibling's recovered mapping
    double threshold_ns = 0.0;    ///< sibling threshold
  };
  std::optional<warm_hints> warm{};
  /// Ablation switches: without system information the tool must guess the
  /// bank count; without spec counts Step 3 cannot complete shared bits.
  bool use_system_info = true;
  bool use_spec_counts = true;
  std::uint64_t tool_seed = 1;
};

/// The one contract check on a dramdig_config, shared by the dramdig_tool
/// constructor and api::tool_options::with_dramdig. Throws
/// contract_violation.
void check_config(const dramdig_config& config);

class dramdig_tool {
 public:
  explicit dramdig_tool(environment& env, dramdig_config config = {});

  /// Run the full pipeline once. Each call maps a fresh buffer. The
  /// record's phases are the six named pipeline phases, in pipeline order,
  /// each aggregated over its occurrences.
  ///
  /// `on_phase` receives the per-phase progress events; when unset, the
  /// tool narrates each phase at info log level (the timing log examples
  /// show). With a hook the probe engine's designed rounds stream too, one
  /// event per cross-bit round ("probe:coarse.row" etc., vote count in
  /// pairs_used, cost metered by the owning phase event).
  [[nodiscard]] tool_result run(const phase_callback& on_phase = {});

 private:
  environment& env_;
  dramdig_config config_;
};

}  // namespace dramdig::core
