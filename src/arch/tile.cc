#include "tile.hh"

#include <algorithm>
#include <atomic>
#include <bit>

#include "common/logging.hh"
#include "device/network.hh"

namespace mouse
{

namespace
{

std::atomic<bool> g_scalar_oracle{false};
std::atomic<bool> g_portable_popcount{false};

/** Column populations per (packed input combo, actual output state). */
using ComboCounts = std::array<std::array<std::uint64_t, 2>, 8>;

/** Operands of one word-parallel gate call. */
struct GateWords
{
    /** Input row planes: bit c of word w of in[i] is input i of
     *  column 64w+c. */
    std::array<const std::uint64_t *, 3> in{};
    std::uint64_t *out = nullptr;
    const ColumnSet *active = nullptr;
    /** Words to scan (the active set is already bounds-checked). */
    unsigned words = 0;
    /** Bit c set: combo c draws a switching current through an
     *  output still at its preset state. */
    unsigned switchMask = 0;
    /** The gate's preset output value (bit set = AP). */
    bool preset = false;
    /** The pulse completed, so switching outputs flip. */
    bool apply = true;
};

/**
 * The word loop of an N-input gate.  Each word splits its active
 * columns into the 2^N combo masks once and counts each by actual
 * output state, so un-preset outputs draw their honest current.
 * Directionality: only outputs still at the preset state can flip; a
 * switching-level current through an already-switched output cannot
 * revert it (idempotency).  Returns the number of switched outputs.
 */
template <unsigned N>
[[gnu::always_inline]] inline unsigned
gateWordLoop(const GateWords &op, ComboCounts &counts_out)
{
    constexpr unsigned kCombos = 1u << N;
    std::array<const std::uint64_t *, N> in{};
    for (unsigned i = 0; i < N; ++i) {
        in[i] = op.in[i];
    }
    std::uint64_t *const out = op.out;
    // All ones for the combos that switch an output at preset.
    std::array<std::uint64_t, kCombos> switching{};
    for (unsigned c = 0; c < kCombos; ++c) {
        switching[c] = ((op.switchMask >> c) & 1) ? ~0ULL : 0;
    }
    // out ^ to_preset has a bit set where the output is at preset.
    const std::uint64_t to_preset = op.preset ? 0 : ~0ULL;
    const std::uint64_t apply = op.apply ? ~0ULL : 0;
    // Local so the counters can live in registers: stores to the
    // output row could otherwise alias them.  Per combo: all its
    // columns, and those whose output is 1 (AP).
    std::array<std::uint64_t, kCombos> total{};
    std::array<std::uint64_t, kCombos> ones{};
    unsigned switched = 0;
    for (unsigned w = 0; w < op.words; ++w) {
        const std::uint64_t act = op.active->word(w);
        if (act == 0) {
            continue;
        }
        // m[combo]: active columns whose inputs read exactly combo
        // (bit i = input i), built by splitting on one input at a time.
        std::array<std::uint64_t, kCombos> m{};
        m[0] = act;
        for (unsigned i = 0; i < N; ++i) {
            const std::uint64_t p = in[i][w];
            const unsigned half = 1u << i;
            for (unsigned c = 0; c < half; ++c) {
                m[c + half] = m[c] & p;
                m[c] &= ~p;
            }
        }
        const std::uint64_t out_w = out[w];
        std::uint64_t cand = 0;
        for (unsigned c = 0; c < kCombos; ++c) {
            total[c] +=
                static_cast<std::uint64_t>(__builtin_popcountll(m[c]));
            ones[c] += static_cast<std::uint64_t>(
                __builtin_popcountll(m[c] & out_w));
            cand |= m[c] & switching[c];
        }
        // Flipping an output at preset moves it to the gate's target.
        const std::uint64_t flip = cand & (out_w ^ to_preset) & apply;
        out[w] = out_w ^ flip;
        switched += static_cast<unsigned>(__builtin_popcountll(flip));
    }
    for (unsigned c = 0; c < kCombos; ++c) {
        counts_out[c][0] += total[c] - ones[c];
        counts_out[c][1] += ones[c];
    }
    return switched;
}

using GateKernel = unsigned (*)(const GateWords &, ComboCounts &);
using GateKernels = std::array<GateKernel, 3>;

template <unsigned N>
unsigned
gatePortable(const GateWords &op, ComboCounts &counts)
{
    return gateWordLoop<N>(op, counts);
}

constexpr GateKernels kPortableKernels{gatePortable<1>, gatePortable<2>,
                                       gatePortable<3>};

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
/** The same loop compiled for the POPCNT instruction; only called
 *  when the CPU reports it. */
template <unsigned N>
__attribute__((target("popcnt"))) unsigned
gatePopcnt(const GateWords &op, ComboCounts &counts)
{
    return gateWordLoop<N>(op, counts);
}

GateKernels
pickHostKernels()
{
    __builtin_cpu_init();
    if (__builtin_cpu_supports("popcnt")) {
        return {gatePopcnt<1>, gatePopcnt<2>, gatePopcnt<3>};
    }
    return kPortableKernels;
}
#else
GateKernels
pickHostKernels()
{
    return kPortableKernels;
}
#endif

/** The host's kernels, chosen once per process. */
const GateKernels &
hostKernels()
{
    static const GateKernels kernels = pickHostKernels();
    return kernels;
}

const GateKernels &
gateKernels()
{
    return g_portable_popcount.load(std::memory_order_relaxed)
               ? kPortableKernels
               : hostKernels();
}

} // namespace

void
Tile::setScalarOracle(bool enabled)
{
    g_scalar_oracle.store(enabled, std::memory_order_relaxed);
}

bool
Tile::scalarOracle()
{
    return g_scalar_oracle.load(std::memory_order_relaxed);
}

void
Tile::setPortablePopcount(bool enabled)
{
    g_portable_popcount.store(enabled, std::memory_order_relaxed);
}

bool
Tile::hardwarePopcount()
{
    return gateKernels()[0] != kPortableKernels[0];
}

std::vector<ColAddr>
ColumnSet::columns() const
{
    std::vector<ColAddr> out;
    out.reserve(count_);
    forEachColumn([&out](ColAddr col) { out.push_back(col); });
    return out;
}

Tile::Tile(unsigned rows, unsigned cols)
    : rows_(rows), cols_(cols), wordsPerRow_((cols + 63) / 64),
      bits_(static_cast<std::size_t>(rows) * ((cols + 63) / 64), 0)
{
    mouse_assert(rows_ > 0 && cols_ > 0, "empty tile");
    mouse_assert(rows_ <= 1024 && cols_ <= 1024,
                 "tile exceeds 10-bit address space");
}

Bit
Tile::bit(RowAddr row, ColAddr col) const
{
    mouse_assert(row < rows_ && col < cols_, "tile address OOB");
    return static_cast<Bit>(
        (bits_[rowBase(row) + (col >> 6)] >> (col & 63)) & 1);
}

void
Tile::setBit(RowAddr row, ColAddr col, Bit value)
{
    mouse_assert(row < rows_ && col < cols_, "tile address OOB");
    const std::size_t i = rowBase(row) + (col >> 6);
    if (value) {
        bits_[i] |= (1ULL << (col & 63));
    } else {
        bits_[i] &= ~(1ULL << (col & 63));
    }
}

std::uint64_t
Tile::columnWord(const std::vector<RowAddr> &rows, ColAddr col) const
{
    mouse_assert(rows.size() <= 64, "columnWord wider than 64 bits");
    std::uint64_t w = 0;
    for (std::size_t j = 0; j < rows.size(); ++j) {
        w |= static_cast<std::uint64_t>(bit(rows[j], col)) << j;
    }
    return w;
}

unsigned
Tile::activeWords(const ColumnSet &active) const
{
    const unsigned words = std::min(wordsPerRow_, active.numWords());
    const unsigned tail = cols_ & 63;
    if (tail != 0 && words == wordsPerRow_) {
        mouse_assert((active.word(words - 1) >> tail) == 0,
                     "tile address OOB");
    }
    for (unsigned w = wordsPerRow_; w < active.numWords(); ++w) {
        mouse_assert(active.word(w) == 0, "tile address OOB");
    }
    return words;
}

ResolvedGate
Tile::resolveGate(const GateLibrary &lib, GateType g,
                  const std::array<RowAddr, 3> &in_rows, RowAddr out_row,
                  unsigned num_rows, GateOpTable &span_table)
{
    const SolvedGate &solved = lib.gate(g);
    mouse_assert(solved.feasible, "gate not feasible for this tech");
    const DeviceConfig &cfg = lib.config();
    ResolvedGate r;
    r.gate = g;
    r.arity = static_cast<std::uint8_t>(gateNumInputs(g));
    r.in = in_rows;
    r.out = out_row;

    // Parity rule (Section II-C): all inputs connect to one bitline
    // (same row parity) and the output to the other.
    const unsigned out_parity = out_row & 1;
    for (unsigned i = 0; i < r.arity; ++i) {
        mouse_assert(in_rows[i] < num_rows, "input row OOB");
        mouse_assert((in_rows[i] & 1) != out_parity,
                     "logic inputs must have opposite parity to output");
    }
    mouse_assert(out_row < num_rows, "output row OOB");

    // The current pulse occupies the head of the cycle; an interrupt
    // that lands inside the pulse prevents every switch.
    r.pulseFraction = solved.pulseTime / cfg.cycleTime;

    // Logic-line span of this execution (parasitic wire length).
    RowAddr row_lo = out_row;
    RowAddr row_hi = out_row;
    for (unsigned i = 0; i < r.arity; ++i) {
        row_lo = std::min(row_lo, in_rows[i]);
        row_hi = std::max(row_hi, in_rows[i]);
    }
    r.rowHi = row_hi;
    r.span = static_cast<std::uint16_t>(row_hi - row_lo);
    mouse_assert(r.span <= solved.maxRowSpan ||
                     cfg.wireResistancePerCell == 0.0,
                 "operand span exceeds the solved operating point");

    // The current depends only on (packed input combo, actual output
    // state, span).  With ideal wires the logic-line term is
    // identically zero and the cached span-0 table is bit-exact at
    // any span.
    if (cfg.wireResistancePerCell > 0.0 && r.span > 0) {
        span_table = lib.opTableAtSpan(g, r.span);
        r.table = &span_table;
    } else {
        r.table = &lib.opTable(g);
    }
    mouse_assert(r.arity >= 1 && r.arity <= 3 &&
                     r.table->numCombos == 1u << r.arity,
                 "gate operating table does not match its inputs");
    r.preset = gatePreset(g);
    for (unsigned combo = 0; combo < r.table->numCombos; ++combo) {
        r.switchMask |= static_cast<std::uint8_t>(
            r.table->switches[combo][r.preset] << combo);
    }
    return r;
}

GateExecResult
Tile::executeGate(const GateLibrary &lib, GateType g,
                  const std::array<RowAddr, 3> &in_rows, RowAddr out_row,
                  const ColumnSet &active, double cycle_fraction)
{
    GateOpTable span_table;
    return executeGate(
        lib, resolveGate(lib, g, in_rows, out_row, rows_, span_table),
        active, cycle_fraction);
}

GateExecResult
Tile::executeGate(const GateLibrary &lib, const ResolvedGate &gate,
                  const ColumnSet &active, double cycle_fraction)
{
    mouse_assert(gate.rowHi < rows_, "gate row OOB");
    const bool pulse_completed = cycle_fraction >= gate.pulseFraction;
    const double energy_fraction =
        pulse_completed ? 1.0 : cycle_fraction / gate.pulseFraction;

    if (scalarOracle()) {
        return executeGateScalar(lib, lib.gate(gate.gate), gate.gate,
                                 gate.in, gate.out, active, gate.span,
                                 pulse_completed, energy_fraction);
    }

    // Word-parallel fast path: fold 64 columns at a time against the
    // resolved operating table.
    const GateOpTable &tbl = *gate.table;
    GateExecResult result;
    result.columns = active.count();
    result.completed = pulse_completed;

    GateWords op;
    for (unsigned i = 0; i < gate.arity; ++i) {
        op.in[i] = &bits_[rowBase(gate.in[i])];
    }
    op.out = &bits_[rowBase(gate.out)];
    op.active = &active;
    op.words = activeWords(active);
    op.switchMask = gate.switchMask;
    op.preset = gate.preset != 0;
    op.apply = pulse_completed;
    ComboCounts counts{};
    result.switched = gateKernels()[gate.arity - 1](op, counts);

    // Deterministic fixed-order energy fold: one multiply per
    // (combo, out-state) bucket, always in index order, so the total
    // is independent of thread count and schedule.
    for (unsigned combo = 0; combo < tbl.numCombos; ++combo) {
        for (unsigned out = 0; out < 2; ++out) {
            if (counts[combo][out] != 0) {
                result.deviceEnergy +=
                    static_cast<double>(counts[combo][out]) *
                    (tbl.pulseEnergy[combo][out] * energy_fraction);
            }
        }
    }
    return result;
}

GateExecResult
Tile::executeGateScalar(const GateLibrary &lib, const SolvedGate &solved,
                        GateType g,
                        const std::array<RowAddr, 3> &in_rows,
                        RowAddr out_row, const ColumnSet &active,
                        unsigned span, bool pulse_completed,
                        double energy_fraction)
{
    const DeviceConfig &cfg = lib.config();
    const int n = gateNumInputs(g);
    const Bit target = static_cast<Bit>(!gatePreset(g));

    GateExecResult result;
    result.columns = active.count();
    result.completed = pulse_completed;

    std::vector<MtjState> in_states(static_cast<std::size_t>(n));
    active.forEachColumn([&](ColAddr col) {
        unsigned combo = 0;
        for (int i = 0; i < n; ++i) {
            const Bit b = bit(in_rows[static_cast<std::size_t>(i)], col);
            in_states[static_cast<std::size_t>(i)] = stateFromBit(b);
            combo |= static_cast<unsigned>(b) << i;
        }
        // Physical model: the current depends on the *actual* output
        // state (not the nominal preset) so un-preset outputs behave
        // honestly.
        const Bit out_actual = bit(out_row, col);
        const Amperes current = gateOutputCurrent(
            cfg, solved.voltage, in_states,
            stateFromBit(out_actual), span);
        result.deviceEnergy +=
            solved.voltage * current * solved.pulseTime * energy_fraction;
        if (pulse_completed && current >= cfg.mtj.switchingCurrent) {
            // Directionality: the pulse can only drive the output
            // toward the gate's target value; if it is already there
            // the state cannot revert (idempotency).
            if (out_actual != target) {
                setBit(out_row, col, target);
                ++result.switched;
            }
        }
    });
    return result;
}

Joules
Tile::presetRow(const GateLibrary &lib, RowAddr row, Bit value,
                const ColumnSet &active, double cycle_fraction)
{
    const WriteOp &w = lib.writeOp();
    return presetRow(w, w.pulseTime / lib.config().cycleTime, row, value,
                     active, cycle_fraction);
}

Joules
Tile::presetRow(const WriteOp &write, double pulse_fraction, RowAddr row,
                Bit value, const ColumnSet &active, double cycle_fraction)
{
    mouse_assert(row < rows_, "preset row OOB");
    const bool completed = cycle_fraction >= pulse_fraction;
    const double energy_fraction =
        completed ? 1.0 : cycle_fraction / pulse_fraction;

    const unsigned words = activeWords(active);
    if (completed) {
        std::uint64_t *bits = &bits_[rowBase(row)];
        for (unsigned wi = 0; wi < words; ++wi) {
            const std::uint64_t act = active.word(wi);
            bits[wi] = value ? (bits[wi] | act) : (bits[wi] & ~act);
        }
    }
    // One write pulse per active column, all inside the tile.
    return static_cast<double>(active.count()) *
           (write.energy * energy_fraction);
}

Joules
Tile::readRow(const GateLibrary &lib, RowAddr row,
              std::vector<Bit> &out) const
{
    mouse_assert(row < rows_, "read row OOB");
    out.resize(cols_);
    ColAddr col = 0;
    for (unsigned w = 0; w < wordsPerRow_; ++w) {
        std::uint64_t word = bits_[rowBase(row) + w];
        const unsigned limit = std::min(64u, cols_ - col);
        for (unsigned b = 0; b < limit; ++b, ++col) {
            out[col] = static_cast<Bit>(word & 1);
            word >>= 1;
        }
    }
    return lib.readOp().energy * cols_;
}

Joules
Tile::writeRow(const GateLibrary &lib, RowAddr row,
               const std::vector<Bit> &data, double cycle_fraction)
{
    mouse_assert(row < rows_, "write row OOB");
    mouse_assert(data.size() >= cols_, "row data too small");
    const WriteOp &w = lib.writeOp();
    const double pulse_fraction =
        w.pulseTime / lib.config().cycleTime;
    const bool completed = cycle_fraction >= pulse_fraction;
    const double energy_fraction =
        completed ? 1.0 : cycle_fraction / pulse_fraction;

    if (completed) {
        ColAddr col = 0;
        for (unsigned wi = 0; wi < wordsPerRow_; ++wi) {
            std::uint64_t word = 0;
            const unsigned limit = std::min(64u, cols_ - col);
            for (unsigned b = 0; b < limit; ++b, ++col) {
                word |= static_cast<std::uint64_t>(data[col] & 1) << b;
            }
            bits_[rowBase(row) + wi] = word;
        }
    }
    return w.energy * cols_ * energy_fraction;
}

std::vector<Bit>
Tile::snapshot() const
{
    std::vector<Bit> out;
    out.reserve(static_cast<std::size_t>(rows_) * cols_);
    for (RowAddr r = 0; r < rows_; ++r) {
        for (ColAddr c = 0; c < cols_; ++c) {
            out.push_back(bit(r, c));
        }
    }
    return out;
}

} // namespace mouse
