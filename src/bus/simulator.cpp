#include "bus/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "util/bits.hpp"
#include "util/simd.hpp"
#include "util/units.hpp"

namespace razorbus::bus {

namespace {

razor::FlopTiming make_timing(const interconnect::BusDesign& design) {
  razor::FlopTiming t{};
  t.main_capture_limit = design.main_capture_limit();
  t.shadow_capture_limit = design.shadow_capture_limit();
  // Short paths must not race past the delayed shadow clock. Common-mode
  // jitter moves data and clock together, so leave a small allowance
  // rather than comparing against the raw shadow delay. Clamped at zero
  // (= check disabled) so a small shadow_delay_fraction cannot produce a
  // negative limit that would spuriously flag every fast arrival.
  t.min_path_limit =
      std::max(0.0, design.shadow_delay_fraction * design.clock_period() - 15e-12);
  return t;
}

// Capture verdict of a whole pattern class for one cycle (all wires of a
// class share one arrival time). Mirrors DoubleSamplingFlop::clock.
enum class Verdict : std::uint8_t {
  held,          // arrival <= 0: latches keep their value, no line update
  clean,         // captured by the main flop
  corrected,     // main missed, shadow caught it: Error_L asserted
  shadow_failed  // silent corruption (late arrival or short-path race)
};

// Branch order mirrors DoubleSamplingFlop::clock exactly; keeping the
// comparison chain identical across every engine is what makes them all
// bit-compatible.
Verdict classify_arrival(const razor::FlopTiming& timing, double arrival) {
  if (arrival <= 0.0) return Verdict::held;
  if (timing.min_path_limit > 0.0 && arrival < timing.min_path_limit)
    return Verdict::shadow_failed;
  if (arrival <= timing.main_capture_limit) return Verdict::clean;
  if (arrival <= timing.shadow_capture_limit) return Verdict::corrected;
  return Verdict::shadow_failed;
}

// One non-idle cycle of one operating point, as a kernel reports it.
struct CycleOutcome {
  double dynamic_energy = 0.0;
  double worst_delay = 0.0;
  BusWord error_mask;
  BusWord shadow_mask;
  BusWord line_update;
};

// The one verdict-to-mask rule: every wire that is not held takes the new
// value; a corrected wire also asserts Error_L, a shadow failure is
// silent corruption.
void apply_verdict(Verdict verdict, const BusWord& wires, CycleOutcome& out) {
  switch (verdict) {
    case Verdict::held:
      return;
    case Verdict::clean:
      break;
    case Verdict::corrected:
      out.error_mask |= wires;
      break;
    case Verdict::shadow_failed:
      out.shadow_mask |= wires;
      break;
  }
  out.line_update |= wires;
}

}  // namespace

namespace detail {

// BusSimulator owns one point at stride 1. MultiPointEngine hands out
// point p of its structure-of-arrays tables: combo c of the point at
// [c * stride], so the combo pointers start at row 0 + p; its per-class
// blocks are contiguous at [p * kCount].
struct PointTables {
  double* leak;                // leakage energy per cycle
  double* scaled_energy;       // [kCount], rail-scaled
  double* class_delay;         // [kCount], zero-jitter arrival (NaN: holds)
  double* combo_energy;        // [combo * stride]
  double* combo_worst;         // [combo * stride]; null where not kept
  std::uint8_t* combo_error;   // [combo * stride]
  std::uint8_t* combo_shadow;  // [combo * stride]
  std::size_t stride;
};

}  // namespace detail

namespace {

using detail::PointTables;

std::size_t combo_index(const detail::WireGroup& g, const BusWord& prev,
                        const BusWord& word) {
  const std::uint64_t pm = prev.extract(g.start, g.width);
  const std::uint64_t cm = word.extract(g.start, g.width);
  return g.table_offset + static_cast<std::size_t>((pm << g.width) | cm);
}

// The one operating-point builder: slice the table at the driver-effective
// voltage, scale energies to the rail, derive leakage and the per-class
// zero-jitter verdicts, and fill the per-group combo tables. Returns
// whether the toggle-update table path may serve the point: false when
// the layout is untabulatable or some combo holds a wire (arrival <= 0).
bool build_operating_point(const detail::BusContext& ctx, double supply,
                           const tech::PvtCorner& env, const PointTables& out) {
  const interconnect::BusDesign& design = ctx.design;
  const double v_eff = env.effective_supply(supply);
  const lut::TableSlice slice = ctx.table.slice(env.process, env.temp_c, v_eff);
  // The tables are characterised at the drooped driver voltage; the charge
  // is still drawn from the un-drooped supply rail.
  const double energy_scale = supply / v_eff;

  const double n_drivers =
      static_cast<double>(design.n_bits) * static_cast<double>(design.n_segments);
  const double leak_current =
      ctx.leakage.current(design.repeater_size, env.process, env.temp_c, v_eff);
  *out.leak = n_drivers * leak_current * supply * design.clock_period();

  // Per-class precomputation: all wires of a class share one delay, so the
  // capture verdict (at zero jitter) and the rail-scaled energy are
  // functions of the operating point alone.
  Verdict verdict[lut::PatternClass::kCount];
  for (int cls = 0; cls < lut::PatternClass::kCount; ++cls) {
    out.scaled_energy[cls] = slice.energy[cls] * energy_scale;
    out.class_delay[cls] = slice.delay[cls];
    verdict[cls] = std::isnan(slice.delay[cls])
                       ? Verdict::held
                       : classify_arrival(ctx.timing, slice.delay[cls]);
  }
  if (!ctx.layout.tabulatable) return false;

  // One (prev, cur) combination of one shield group: the per-bit chain in
  // ascending bit order is the exact operation sequence every kernel uses
  // for this group's energy sub-sum. A switching victim toggles by
  // definition, so at zero jitter (line == prev) the class verdict of
  // every wire with a delay is its wire verdict.
  bool table_ok = true;
  bool built[detail::GroupLayout::kMaxTableWidth + 1] = {};
  for (const auto& g : ctx.layout.groups) {
    if (built[g.width]) continue;
    built[g.width] = true;
    const int w = g.width;
    const std::uint32_t combos = 1u << w;
    for (std::uint32_t pm = 0; pm < combos; ++pm) {
      for (std::uint32_t cm = 0; cm < combos; ++cm) {
        double energy = 0.0;
        double worst = 0.0;
        BusWord timed;  // wires with a delay
        CycleOutcome cell;
        for (int b = 0; b < w; ++b) {
          const auto victim = lut::classify_victim((pm >> b) & 1u, (cm >> b) & 1u);
          const lut::NeighborActivity left =
              b == 0 ? lut::NeighborActivity::shield
                     : lut::classify_neighbor((pm >> (b - 1)) & 1u, (cm >> (b - 1)) & 1u);
          const lut::NeighborActivity right =
              b == w - 1
                  ? lut::NeighborActivity::shield
                  : lut::classify_neighbor((pm >> (b + 1)) & 1u, (cm >> (b + 1)) & 1u);
          const int cls = lut::PatternClass::encode(victim, left, right);
          energy += out.scaled_energy[cls];
          const double d = out.class_delay[cls];
          if (std::isnan(d)) continue;
          if (d > worst) worst = d;
          const BusWord wire = BusWord(1) << b;
          timed |= wire;
          apply_verdict(verdict[cls], wire, cell);
        }
        // A held wire would silently keep its old value, which the
        // toggle-update table path cannot express: such operating points
        // go through the per-class kernel instead.
        if (cell.line_update != timed) table_ok = false;
        const std::size_t at = (g.table_offset + ((pm << w) | cm)) * out.stride;
        out.combo_energy[at] = energy;
        if (out.combo_worst) out.combo_worst[at] = worst;
        out.combo_error[at] = static_cast<std::uint8_t>(cell.error_mask.low64());
        out.combo_shadow[at] = static_cast<std::uint8_t>(cell.shadow_mask.low64());
      }
    }
  }
  return table_ok;
}

// The trace-dependent work of one cycle — class masks for jitter_kernel,
// per-wire classes for general_kernel — computed on first demand, then
// shared by every operating point the cycle visits. One per cycle.
class CyclePattern {
 public:
  CyclePattern(const WireClassifier& classifier, int* classes)
      : classifier_(classifier), classes_(classes) {}

  const ClassMaskSet& masks(const BusWord& prev, const BusWord& word) {
    if (!masks_) masks_ = classifier_.masks(prev, word);
    return *masks_;
  }
  const int* classes(const BusWord& prev, const BusWord& word) {
    if (!have_classes_) classifier_.classify_all(prev, word, classes_);
    have_classes_ = true;
    return classes_;
  }

 private:
  const WireClassifier& classifier_;
  std::optional<ClassMaskSet> masks_;
  int* classes_;
  bool have_classes_ = false;
};

// Combo-table kernel for jitter-free cycles with the receiver in sync (the
// common case): the whole cycle is one lookup per shield group. Every
// toggling wire captures (cleanly or not), so the line update is simply
// the toggle mask. kOnePoint compiles BusSimulator's stride-1 tables, which
// also keep the worst arrival; the multi-point tables are strided and
// leave worst_delay at zero. Reading the stride at run time costs the
// single-point hot loop about a quarter of its speed.
template <bool kOnePoint>
CycleOutcome table_kernel(const detail::BusContext& ctx, const PointTables& t,
                          const BusWord& prev, const BusWord& word) {
  CycleOutcome out;
  for (const auto& g : ctx.layout.groups) {
    const std::size_t at = combo_index(g, prev, word) * (kOnePoint ? 1 : t.stride);
    out.dynamic_energy += t.combo_energy[at];
    if (kOnePoint && t.combo_worst[at] > out.worst_delay)
      out.worst_delay = t.combo_worst[at];
    out.error_mask |= BusWord(t.combo_error[at]) << g.start;
    out.shadow_mask |= BusWord(t.combo_shadow[at]) << g.start;
  }
  out.line_update = (prev ^ word) & ctx.classifier.bits_mask();
  return out;
}

// Bit-parallel per-class kernel for jittered (or desynced, or
// combo-ineligible) cycles: energy and its per-group sub-sum order are
// jitter-independent, so they still come from the combo tables; verdicts
// are re-derived per present switching class (all wires of a class share
// one arrival), comparing arrival = delay + jitter with exactly the flop's
// comparison chain.
CycleOutcome jitter_kernel(const detail::BusContext& ctx, const PointTables& t,
                           CyclePattern& pattern, const BusWord& prev,
                           const BusWord& word, const BusWord& line, double jitter) {
  CycleOutcome out;
  for (const auto& g : ctx.layout.groups)
    out.dynamic_energy += t.combo_energy[combo_index(g, prev, word) * t.stride];

  const ClassMaskSet& s = pattern.masks(prev, word);
  const BusWord flop_toggle = word ^ line;
  for (int v = 0; v < 2; ++v) {  // rise, fall: the switching victims
    const BusWord vm = s.victim[v];
    if (!vm.any()) continue;
    for (int l = 0; l < 4; ++l) {
      const BusWord vl = vm & s.left[l];
      if (!vl.any()) continue;
      for (int r = 0; r < 4; ++r) {
        const BusWord mask = vl & s.right[r];
        if (!mask.any()) continue;
        const double arrival = t.class_delay[(v << 4) | (l << 2) | r] + jitter;
        if (arrival > out.worst_delay) out.worst_delay = arrival;
        const BusWord active = mask & flop_toggle;
        if (active.any())
          apply_verdict(classify_arrival(ctx.timing, arrival), active, out);
      }
    }
  }
  return out;
}

// Per-wire kernel for untabulatable layouts (a shield group wider than
// kMaxTableWidth): classify every wire, keep the group-wise energy
// accounting, and apply the class verdict per wire.
CycleOutcome general_kernel(const detail::BusContext& ctx, const PointTables& t,
                            CyclePattern& pattern, const BusWord& prev,
                            const BusWord& word, const BusWord& line, double jitter) {
  CycleOutcome out;
  const int* classes = pattern.classes(prev, word);
  const BusWord flop_toggle = word ^ line;
  for (const auto& g : ctx.layout.groups) {
    double sub = 0.0;
    for (int bit = g.start; bit < g.start + g.width; ++bit) {
      const int cls = classes[bit];
      sub += t.scaled_energy[cls];
      const double d = t.class_delay[cls];
      if (std::isnan(d)) continue;
      const double arrival = d + jitter;
      if (arrival > out.worst_delay) out.worst_delay = arrival;
      if (flop_toggle.test(bit))
        apply_verdict(classify_arrival(ctx.timing, arrival), BusWord(1) << bit, out);
    }
    out.dynamic_energy += sub;
  }
  return out;
}

// A cycle off the table path: the per-wire kernel for untabulatable
// layouts, the per-class kernel otherwise.
CycleOutcome off_table_cycle(const detail::BusContext& ctx, const PointTables& t,
                             CyclePattern& pattern, const BusWord& prev,
                             const BusWord& word, const BusWord& line, double jitter) {
  if (!ctx.layout.tabulatable)
    return general_kernel(ctx, t, pattern, prev, word, line, jitter);
  return jitter_kernel(ctx, t, pattern, prev, word, line, jitter);
}

// The kernel selection of both engines (DESIGN.md §5): a non-idle cycle
// of one operating point takes the table kernel when it is jitter-free,
// the point is table-eligible and its receiver is in sync with the bus;
// off_table_cycle serves it otherwise. Callers branch on this themselves:
// a call that wraps both kernels stays out of line and costs the
// single-point hot loop about a quarter of its speed.
bool table_path(const detail::BusContext& ctx, bool table_ok, const BusWord& prev,
                const BusWord& line, double jitter) {
  // razorlint: allow(float-eq): exact 0.0 marks "no jitter drawn this cycle";
  // the table path is only valid for that exact case (DESIGN.md §5).
  return jitter == 0.0 && table_ok && ((line ^ prev) & ctx.classifier.bits_mask()).none();
}

}  // namespace

namespace detail {

GroupLayout GroupLayout::build(const interconnect::BusDesign& design) {
  // A group is a maximal run of signal wires with no internal shield; its
  // edges border shields (the layout guarantees shields at both bus
  // edges), so nothing outside a group influences its wires. Same-width
  // groups are structurally identical and share one combo-table block.
  GroupLayout layout;
  const int n = design.n_bits;
  std::size_t offsets[kMaxTableWidth + 1];
  std::fill(std::begin(offsets), std::end(offsets), static_cast<std::size_t>(-1));
  layout.tabulatable = true;

  int i = 0;
  while (i < n) {
    int j = i + 1;
    while (j < n && design.left_neighbor(j) != interconnect::NeighborKind::shield) ++j;
    WireGroup g;
    g.start = i;
    g.width = j - i;
    if (g.width > kMaxTableWidth) {
      layout.tabulatable = false;
    } else {
      if (offsets[g.width] == static_cast<std::size_t>(-1)) {
        offsets[g.width] = layout.total_combos;
        layout.total_combos += static_cast<std::size_t>(1) << (2 * g.width);
      }
      g.table_offset = offsets[g.width];
    }
    layout.groups.push_back(g);
    i = j;
  }
  return layout;
}

BusContext::BusContext(const interconnect::BusDesign& design_in,
                       const lut::DelayEnergyTable& table_in, const char* engine)
    : design(design_in),
      table(table_in),
      leakage(design_in.node),
      classifier(design_in),
      timing(make_timing(design_in)) {
  design.validate();
  if (design.repeater_size <= 0.0)
    throw std::invalid_argument(std::string(engine) + ": repeaters not sized");
  layout = GroupLayout::build(design);
}

}  // namespace detail

BusSimulator::BusSimulator(const interconnect::BusDesign& design,
                           const lut::DelayEnergyTable& table,
                           tech::PvtCorner environment,
                           razor::RecoveryCostModel recovery)
    : ctx_(design, table, "BusSimulator"),
      environment_(environment),
      recovery_(recovery),
      bank_(design.n_bits, ctx_.timing),
      combo_energy_(ctx_.layout.total_combos, 0.0),
      combo_worst_(ctx_.layout.total_combos, 0.0),
      combo_error_(ctx_.layout.total_combos, 0),
      combo_shadow_(ctx_.layout.total_combos, 0),
      arrivals_(static_cast<std::size_t>(design.n_bits), -1.0),
      classes_(static_cast<std::size_t>(design.n_bits), 0) {
  cycle_overhead_ = recovery_.cycle_overhead(design.n_bits);
  error_overhead_ = recovery_.error_overhead(design.n_bits);
  set_supply(design.node.vdd_nominal);
}

void BusSimulator::set_supply(double volts) {
  if (volts <= 0.0) throw std::invalid_argument("BusSimulator: non-positive supply");
  // Tolerant compare (kSupplyToleranceVolts, shared with the regulator):
  // the regulator accumulates 20 mV steps in floating point, so "the same
  // voltage" can arrive a few ULPs away from the value we cached. A
  // sub-nanovolt difference never changes the interpolated tables, while
  // an exact != would force a needless operating-point refresh on every
  // closed-loop segment.
  if (supply_ > 0.0 && std::fabs(volts - supply_) <= kSupplyToleranceVolts) return;
  supply_ = volts;
  refresh_operating_point();
}

void BusSimulator::set_environment(const tech::PvtCorner& environment) {
  // Exact compare on purpose: drift schedules quantise temperature to the
  // characterised axis and re-derive the same corner for most windows, so
  // the common case is bit-equality and an early return.
  if (environment == environment_) return;
  environment_ = environment;
  refresh_operating_point();
}

std::string to_string(EngineMode mode) {
  switch (mode) {
    case EngineMode::bit_parallel:
      return "bit_parallel";
    case EngineMode::reference:
      return "reference";
    case EngineMode::simd:
      return "simd";
  }
  return "bit_parallel";
}

EngineMode engine_mode_from_string(const std::string& name) {
  if (name == "bit_parallel") return EngineMode::bit_parallel;
  if (name == "reference") return EngineMode::reference;
  if (name == "simd") return EngineMode::simd;
  throw std::invalid_argument("unknown engine mode '" + name +
                              "' (expected bit_parallel, reference or simd)");
}

void BusSimulator::set_engine_mode(EngineMode mode) {
  if (mode == mode_) return;
  mode_ = mode;
  // The engines share receiver state through line_word_: the reference
  // engine re-seeds its flop bank from it, the bit-parallel engine reads
  // it directly. Counters and totals carry over untouched.
  if (mode_ == EngineMode::reference)
    bank_ = razor::FlopBank(ctx_.design.n_bits, ctx_.timing, line_word_);
}

detail::PointTables BusSimulator::point_tables() {
  return {&leakage_energy_per_cycle_,
          scaled_energy_,
          class_delay_,
          combo_energy_.data(),
          combo_worst_.data(),
          combo_error_.data(),
          combo_shadow_.data(),
          1};
}

void BusSimulator::refresh_operating_point() {
  combo_zero_jitter_ok_ =
      build_operating_point(ctx_, supply_, environment_, point_tables());
}

void BusSimulator::set_timing_jitter(double sigma_seconds, std::uint64_t seed) {
  if (sigma_seconds < 0.0) throw std::invalid_argument("negative jitter sigma");
  jitter_sigma_ = sigma_seconds;
  jitter_rng_ = Rng(seed);
}

void BusSimulator::account_idle(CycleResult& out) {
  // Idle bus: nothing switches, no flop can err, no dynamic energy.
  out.bus_energy = leakage_energy_per_cycle_;
  out.overhead_energy = cycle_overhead_;
  ++totals_.cycles;
  totals_.bus_energy += out.bus_energy;
  totals_.overhead_energy += out.overhead_energy;
}

CycleResult BusSimulator::step(const BusWord& word) {
  // simd is a driver-level scheduling mode; on a single simulator it IS
  // the bit-parallel engine.
  return mode_ == EngineMode::reference ? step_reference(word)
                                        : step_bit_parallel(word);
}

// --------------------------------------------------------------- reference

CycleResult BusSimulator::step_reference(const BusWord& word) {
  CycleResult out;

  if (word == prev_word_) {
    bank_.tick_hold();
    account_idle(out);
    return out;
  }

  ctx_.classifier.classify_all(prev_word_, word, classes_.data());
  const double jitter =
      jitter_sigma_ > 0.0 ? jitter_rng_.normal(0.0, jitter_sigma_) : 0.0;

  double worst = 0.0;
  for (int bit = 0; bit < ctx_.classifier.n_bits(); ++bit) {
    const double d = class_delay_[classes_[static_cast<std::size_t>(bit)]];
    if (std::isnan(d)) {
      arrivals_[static_cast<std::size_t>(bit)] = -1.0;
    } else {
      const double arrival = d + jitter;
      arrivals_[static_cast<std::size_t>(bit)] = arrival;
      if (arrival > worst) worst = arrival;
    }
  }
  // Group-wise energy accounting (one sub-accumulator per shield group,
  // groups summed in order): the exact operation sequence of the
  // bit-parallel engine's precomputed group tables, so the engines'
  // energy totals match bit for bit.
  double dynamic_energy = 0.0;
  for (const auto& g : ctx_.layout.groups) {
    double sub = 0.0;
    for (int bit = g.start; bit < g.start + g.width; ++bit)
      sub += scaled_energy_[classes_[static_cast<std::size_t>(bit)]];
    dynamic_energy += sub;
  }

  const razor::BankCycleResult bank = bank_.clock(word, arrivals_);
  line_word_ = bank.captured;
  out.error = bank.error;
  out.shadow_failure = bank.shadow_failure;
  out.worst_delay = worst;
  out.bus_energy = dynamic_energy + leakage_energy_per_cycle_;
  out.overhead_energy = cycle_overhead_;
  if (bank.error) out.overhead_energy += error_overhead_;

  prev_word_ = word;
  ++totals_.cycles;
  if (out.error) ++totals_.errors;
  if (out.shadow_failure) ++totals_.shadow_failures;
  totals_.bus_energy += out.bus_energy;
  totals_.overhead_energy += out.overhead_energy;
  return out;
}

// ------------------------------------------------------------ bit-parallel

CycleResult BusSimulator::step_bit_parallel(const BusWord& word) {
  CycleResult out;

  if (word == prev_word_) {
    account_idle(out);
    return out;
  }

  const double jitter =
      jitter_sigma_ > 0.0 ? jitter_rng_.normal(0.0, jitter_sigma_) : 0.0;
  const detail::PointTables tables = point_tables();
  CyclePattern pattern(ctx_.classifier, classes_.data());
  const CycleOutcome k =
      table_path(ctx_, combo_zero_jitter_ok_, prev_word_, line_word_, jitter)
          ? table_kernel<true>(ctx_, tables, prev_word_, word)
          : off_table_cycle(ctx_, tables, pattern, prev_word_, word, line_word_, jitter);

  line_word_ = (line_word_ & ~k.line_update) | (word & k.line_update);
  out.error = k.error_mask.any();
  out.shadow_failure = k.shadow_mask.any();
  out.worst_delay = k.worst_delay;
  out.bus_energy = k.dynamic_energy + leakage_energy_per_cycle_;
  out.overhead_energy = cycle_overhead_;
  if (out.error) out.overhead_energy += error_overhead_;

  prev_word_ = word;
  ++totals_.cycles;
  if (out.error) ++totals_.errors;
  if (out.shadow_failure) ++totals_.shadow_failures;
  totals_.bus_energy += out.bus_energy;
  totals_.overhead_energy += out.overhead_energy;
  return out;
}

void BusSimulator::run_bit_parallel(const BusWord* words, std::size_t n) {
  // Totals accumulate in registers across the whole span; the per-cycle
  // operation sequence (one `+= dynamic + leakage` per cycle, etc.) is
  // kept identical to step(), so batching never changes a single bit.
  std::uint64_t cycles = totals_.cycles;
  std::uint64_t errors = totals_.errors;
  std::uint64_t shadow_failures = totals_.shadow_failures;
  double bus_energy = totals_.bus_energy;
  double overhead_energy = totals_.overhead_energy;
  BusWord prev = prev_word_;
  BusWord line = line_word_;

  const double leak = leakage_energy_per_cycle_;
  const double cycle_ovh = cycle_overhead_;
  const double error_ovh = error_overhead_;
  const bool jitter_on = jitter_sigma_ > 0.0;
  const detail::PointTables tables = point_tables();

  for (std::size_t i = 0; i < n; ++i) {
    const BusWord word = words[i];
    if (word == prev) {
      ++cycles;
      bus_energy += leak;
      overhead_energy += cycle_ovh;
      continue;
    }
    const double jitter = jitter_on ? jitter_rng_.normal(0.0, jitter_sigma_) : 0.0;
    CyclePattern pattern(ctx_.classifier, classes_.data());
    const CycleOutcome k =
        table_path(ctx_, combo_zero_jitter_ok_, prev, line, jitter)
            ? table_kernel<true>(ctx_, tables, prev, word)
            : off_table_cycle(ctx_, tables, pattern, prev, word, line, jitter);

    line = (line & ~k.line_update) | (word & k.line_update);
    prev = word;
    ++cycles;
    const bool error = k.error_mask.any();
    if (error) ++errors;
    if (k.shadow_mask.any()) ++shadow_failures;
    bus_energy += k.dynamic_energy + leak;
    double ovh = cycle_ovh;
    if (error) ovh += error_ovh;
    overhead_energy += ovh;
  }

  totals_.cycles = cycles;
  totals_.errors = errors;
  totals_.shadow_failures = shadow_failures;
  totals_.bus_energy = bus_energy;
  totals_.overhead_energy = overhead_energy;
  prev_word_ = prev;
  line_word_ = line;
}

// ------------------------------------------------------------------ shared

RunningTotals BusSimulator::run(const BusWord* words, std::size_t n) {
  const RunningTotals before = totals_;
  if (mode_ == EngineMode::reference) {
    for (std::size_t i = 0; i < n; ++i) step_reference(words[i]);
  } else {
    run_bit_parallel(words, n);
  }
  return totals_.since(before);
}

RunningTotals BusSimulator::run(const std::uint32_t* words, std::size_t n) {
  const std::vector<BusWord> wide(words, words + n);
  return run(wide.data(), wide.size());
}

void BusSimulator::reset(const BusWord& initial_word) {
  prev_word_ = initial_word;
  line_word_ = initial_word & ctx_.classifier.bits_mask();
  totals_ = RunningTotals{};
  bank_ = razor::FlopBank(ctx_.design.n_bits, ctx_.timing, initial_word);
}

double BusSimulator::peek_cycle_energy(const BusWord& word) const {
  // Per-group sub-sums, same accounting as the engines.
  double energy = leakage_energy_per_cycle_;
  if (word == prev_word_) return energy;
  for (const auto& g : ctx_.layout.groups) {
    double sub = 0.0;
    for (int bit = g.start; bit < g.start + g.width; ++bit)
      sub += scaled_energy_[ctx_.classifier.classify(prev_word_, word, bit)];
    energy += sub;
  }
  return energy;
}

RunningTotals BusSimulator::run_reference(const interconnect::BusDesign& design,
                                          const lut::DelayEnergyTable& table,
                                          tech::PvtCorner environment,
                                          const std::vector<BusWord>& words) {
  BusSimulator sim(design, table, environment);
  sim.set_supply(design.node.vdd_nominal);
  sim.run(words.data(), words.size());
  return sim.totals();
}

RunningTotals BusSimulator::run_reference(const interconnect::BusDesign& design,
                                          const lut::DelayEnergyTable& table,
                                          tech::PvtCorner environment,
                                          const std::vector<std::uint32_t>& words) {
  return run_reference(design, table, environment,
                       std::vector<BusWord>(words.begin(), words.end()));
}

// ------------------------------------------------------------- multi-point

MultiPointEngine::MultiPointEngine(const interconnect::BusDesign& design,
                                   const lut::DelayEnergyTable& table,
                                   const std::vector<OperatingPoint>& points,
                                   const MultiPointConfig& config)
    : ctx_(design, table, "MultiPointEngine"),
      jitter_sigma_(config.timing_jitter_sigma),
      jitter_rng_(config.jitter_seed),
      classes_(static_cast<std::size_t>(design.n_bits), 0) {
  if (points.empty())
    throw std::invalid_argument("MultiPointEngine: empty operating-point list");
  if (jitter_sigma_ < 0.0) throw std::invalid_argument("negative jitter sigma");

  cycle_overhead_ = config.recovery.cycle_overhead(design.n_bits);
  cycle_error_overhead_ = cycle_overhead_ + config.recovery.error_overhead(design.n_bits);

  n_points_ = points.size();
  // Rows padded to a four-double granule so the row loops of util/simd.cpp
  // run without a scalar tail; padding slots stay zero and never reach
  // the totals.
  stride_ = (n_points_ + 3) & ~std::size_t{3};

  leak_.assign(stride_, 0.0);
  scaled_energy_.assign(n_points_ * lut::PatternClass::kCount, 0.0);
  class_delay_.assign(n_points_ * lut::PatternClass::kCount, 0.0);
  combo_energy_.assign(ctx_.layout.total_combos * stride_, 0.0);
  combo_error_.assign(ctx_.layout.total_combos * stride_, 0);
  combo_shadow_.assign(ctx_.layout.total_combos * stride_, 0);
  combo_ok_.assign(n_points_, 0);
  all_combo_ok_ = true;
  for (std::size_t p = 0; p < n_points_; ++p) {
    if (points[p].supply <= 0.0)
      throw std::invalid_argument("MultiPointEngine: non-positive supply");
    combo_ok_[p] = build_operating_point(ctx_, points[p].supply, points[p].environment,
                                         point_tables(p));
    all_combo_ok_ = all_combo_ok_ && combo_ok_[p];
  }

  line_.assign(n_points_, BusWord());
  errors_.assign(n_points_, 0);
  shadow_failures_.assign(n_points_, 0);
  bus_energy_.assign(stride_, 0.0);
  overhead_energy_.assign(stride_, 0.0);
  dyn_.assign(stride_, 0.0);
  errb_.assign(stride_, 0);
  shadowb_.assign(stride_, 0);
  reset(config.initial_word);
}

detail::PointTables MultiPointEngine::point_tables(std::size_t p) {
  constexpr std::size_t kCount = lut::PatternClass::kCount;
  return {&leak_[p],
          &scaled_energy_[p * kCount],
          &class_delay_[p * kCount],
          combo_energy_.data() + p,
          nullptr,
          combo_error_.data() + p,
          combo_shadow_.data() + p,
          stride_};
}

void MultiPointEngine::reset(const BusWord& initial_word) {
  prev_word_ = initial_word;
  std::fill(line_.begin(), line_.end(), initial_word & ctx_.classifier.bits_mask());
  all_fast_ = all_combo_ok_;
  cycles_ = 0;
  std::fill(errors_.begin(), errors_.end(), 0);
  std::fill(shadow_failures_.begin(), shadow_failures_.end(), 0);
  std::fill(bus_energy_.begin(), bus_energy_.end(), 0.0);
  std::fill(overhead_energy_.begin(), overhead_energy_.end(), 0.0);
}

void MultiPointEngine::run(const BusWord* words, std::size_t n) {
  const bool jitter_on = jitter_sigma_ > 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const BusWord word = words[i];
    if (word == prev_word_) {
      // Idle bus: nothing switches for ANY point — leakage plus the flop
      // clocking overhead, rows at a time.
      ++cycles_;
      simd::add_rows(bus_energy_.data(), leak_.data(), stride_);
      simd::add_const(overhead_energy_.data(), cycle_overhead_, stride_);
      continue;
    }
    const double jitter = jitter_on ? jitter_rng_.normal(0.0, jitter_sigma_) : 0.0;
    // razorlint: allow(float-eq): exact 0.0 marks "no jitter drawn this cycle".
    if (all_fast_ && jitter == 0.0)
      fast_cycle(word);
    else
      mixed_cycle(word, jitter);
    prev_word_ = word;
  }
}

void MultiPointEngine::fast_cycle(const BusWord& word) {
  // Every point is on the zero-jitter table path: the cycle is one combo
  // row per shield group, reduced with the util/simd.hpp row loops.
  // Receiver lines stay implicitly in sync (line == word on the signal
  // wires), so no per-point line update is needed.
  std::fill(dyn_.begin(), dyn_.end(), 0.0);
  std::memset(errb_.data(), 0, stride_);
  std::memset(shadowb_.data(), 0, stride_);
  for (const auto& g : ctx_.layout.groups) {
    const std::size_t row = combo_index(g, prev_word_, word) * stride_;
    simd::add_rows(dyn_.data(), combo_energy_.data() + row, stride_);
    simd::or_bytes(errb_.data(), combo_error_.data() + row, stride_);
    simd::or_bytes(shadowb_.data(), combo_shadow_.data() + row, stride_);
  }
  simd::add2_rows(bus_energy_.data(), dyn_.data(), leak_.data(), stride_);
  ++cycles_;
  for (std::size_t p = 0; p < n_points_; ++p) {
    const bool error = errb_[p] != 0;
    errors_[p] += error ? 1u : 0u;
    shadow_failures_[p] += shadowb_[p] != 0 ? 1u : 0u;
    overhead_energy_[p] += error ? cycle_error_overhead_ : cycle_overhead_;
  }
}

void MultiPointEngine::mixed_cycle(const BusWord& word, double jitter) {
  // The general cycle: jittered arrivals, a desynced receiver, a
  // combo-ineligible point, or an untabulatable layout. Points are walked
  // one at a time through the single-point engine's own kernel selection
  // (table_path); the trace-dependent pattern work is shared.
  const BusWord bits_mask = ctx_.classifier.bits_mask();
  if (all_fast_) {
    // Leaving the fast path: materialize the per-point receiver lines
    // (all equal to prev on the signal wires while the path was hot).
    std::fill(line_.begin(), line_.end(), prev_word_ & bits_mask);
  }
  CyclePattern pattern(ctx_.classifier, classes_.data());
  // Rejoin the all-points fast path once every receiver line is back in
  // sync with the new prev (= word) — immediately after a transient
  // jitter cycle in which every active wire captured.
  bool sync = all_combo_ok_;
  ++cycles_;
  for (std::size_t p = 0; p < n_points_; ++p) {
    const detail::PointTables tables = point_tables(p);
    const CycleOutcome k =
        table_path(ctx_, combo_ok_[p] != 0, prev_word_, line_[p], jitter)
            ? table_kernel<false>(ctx_, tables, prev_word_, word)
            : off_table_cycle(ctx_, tables, pattern, prev_word_, word, line_[p], jitter);
    line_[p] = (line_[p] & ~k.line_update) | (word & k.line_update);
    const bool error = k.error_mask.any();
    errors_[p] += error ? 1u : 0u;
    shadow_failures_[p] += k.shadow_mask.any() ? 1u : 0u;
    bus_energy_[p] += k.dynamic_energy + leak_[p];
    overhead_energy_[p] += error ? cycle_error_overhead_ : cycle_overhead_;
    if (((line_[p] ^ word) & bits_mask).any()) sync = false;
  }
  all_fast_ = sync;
}

RunningTotals MultiPointEngine::totals(std::size_t point) const {
  RunningTotals t;
  t.cycles = cycles_;
  t.errors = errors_[point];
  t.shadow_failures = shadow_failures_[point];
  t.bus_energy = bus_energy_[point];
  t.overhead_energy = overhead_energy_[point];
  return t;
}

std::vector<RunningTotals> MultiPointEngine::all_totals() const {
  std::vector<RunningTotals> out(n_points_);
  for (std::size_t p = 0; p < n_points_; ++p) out[p] = totals(p);
  return out;
}

std::vector<RunningTotals> multi_point_run(const interconnect::BusDesign& design,
                                           const lut::DelayEnergyTable& table,
                                           const std::vector<OperatingPoint>& points,
                                           const BusWord* words, std::size_t n,
                                           const MultiPointConfig& config) {
  MultiPointEngine engine(design, table, points, config);
  engine.run(words, n);
  return engine.all_totals();
}

std::vector<RunningTotals> multi_point_run(const interconnect::BusDesign& design,
                                           const lut::DelayEnergyTable& table,
                                           const std::vector<OperatingPoint>& points,
                                           const std::vector<BusWord>& words,
                                           const MultiPointConfig& config) {
  return multi_point_run(design, table, points, words.data(), words.size(), config);
}

}  // namespace razorbus::bus
