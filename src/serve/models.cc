#include "models.hh"

#include <algorithm>

#include "common/logging.hh"
#include "compile/builder.hh"
#include "ml/mapping.hh"

namespace mouse::serve
{

namespace
{

std::vector<RowAddr>
rowsOf(const Word &w)
{
    std::vector<RowAddr> rows;
    rows.reserve(w.size());
    for (const Val &v : w) {
        rows.push_back(v.row);
    }
    return rows;
}

/** Columns col .. col+width-1 of @p row all take @p value, written
 *  as row fields of at most 64 columns. */
void
fillColumns(Tile &tile, RowAddr row, unsigned col, unsigned width,
            Bit value)
{
    const std::uint64_t field = value ? ~0ULL : 0;
    for (unsigned c = 0; c < width; c += 64) {
        tile.setRowField(row, static_cast<ColAddr>(col + c),
                         std::min(64u, width - c), field);
    }
}

/** Columns 0 .. width-1 of @p row repeat @p pattern: column c takes
 *  pattern[c % pattern.size()], written as row fields of 64 columns.
 *  @p rep is scratch space. */
void
writePeriodic(Tile &tile, RowAddr row, unsigned width,
              const std::vector<Bit> &pattern,
              std::vector<std::uint64_t> &rep)
{
    const unsigned period = static_cast<unsigned>(pattern.size());
    // The pattern repeated over period + 64 bits: the field of every
    // 64-column chunk starts inside the first period.
    rep.assign((period + 127) / 64, 0);
    for (unsigned b = 0, u = 0; b < period + 64; ++b) {
        rep[b >> 6] |= static_cast<std::uint64_t>(pattern[u] & 1)
                       << (b & 63);
        u = u + 1 == period ? 0 : u + 1;
    }
    const unsigned step = 64 % period;
    for (unsigned c = 0, phase = 0; c < width; c += 64) {
        const unsigned w = phase >> 6;
        const unsigned off = phase & 63;
        std::uint64_t field = rep[w] >> off;
        if (off != 0) {
            field |= rep[w + 1] << (64 - off);
        }
        tile.setRowField(row, static_cast<ColAddr>(c),
                         std::min(64u, width - c), field);
        phase += step;
        phase -= phase >= period ? period : 0;
    }
}

} // namespace

PackedModel
PackedModel::compileBnn(const GateLibrary &lib, const ArrayConfig &cfg,
                        ModelId id, BnnServeModel m)
{
    const unsigned k = m.layer.inputs;
    const unsigned classes = m.layer.outputs;
    mouse_assert(k > 0 && classes > 0, "empty BNN serve model");
    mouse_assert(m.layer.weights.size() == classes &&
                     m.layer.thresholds.size() == classes,
                 "BNN serve model weights/thresholds mismatch shape");

    PackedModel pm;
    pm.id_ = id;
    pm.name_ = std::move(m.name);
    pm.kind_ = Kind::kBnn;
    pm.layer_ = std::move(m.layer);
    pm.colsPerRequest_ = classes;
    pm.slots_ = cfg.tileCols / classes;
    pm.inputSize_ = k;
    mouse_assert(pm.slots_ > 0,
                 "engine narrower than one BNN request");

    // Interleaved even-row layout (see buildSmallBnnNeuronKernel):
    // weight bit i at 4i, input bit i at 4i+2; thresholds on the odd
    // bitline above the data.
    pm.threshBits_ = 1;
    while ((1u << pm.threshBits_) <= k) {
        ++pm.threshBits_;
    }
    const RowAddr threshBase = static_cast<RowAddr>(4 * k + 1);
    const unsigned firstFree = 4 * k + 2 * pm.threshBits_ + 4;

    KernelBuilder kb(lib, cfg, 0, firstFree);
    kb.activate(0,
                static_cast<ColAddr>(pm.slots_ * classes - 1));
    Word count;
    Val fires{};
    buildSmallBnnNeuronKernel(kb, /*w_base=*/0, /*x_base=*/2,
                              threshBase, k, count, fires);
    pm.program_ = std::make_shared<const Program>(kb.finish());
    pm.countRows_ = rowsOf(count);
    return pm;
}

PackedModel
PackedModel::compileSvm(const GateLibrary &lib, const ArrayConfig &cfg,
                        ModelId id, SvmServeModel m)
{
    const unsigned svs =
        static_cast<unsigned>(m.svm.supportVectors.size());
    mouse_assert(svs > 0 && m.dim > 0, "empty SVM serve model");
    mouse_assert(m.svm.coefficients.size() == svs,
                 "SVM serve model coefficients mismatch SV count");
    mouse_assert(m.inputBits >= 1 && m.inputBits <= 8,
                 "SVM serve model feature precision out of range");
    for (const Features &sv : m.svm.supportVectors) {
        mouse_assert(sv.size() == m.dim,
                     "SVM support vector dimension mismatch");
    }

    PackedModel pm;
    pm.id_ = id;
    pm.name_ = std::move(m.name);
    pm.kind_ = Kind::kSvm;
    pm.svm_ = std::move(m.svm);
    pm.inputBits_ = m.inputBits;
    pm.colsPerRequest_ = svs;
    pm.slots_ = cfg.tileCols / svs;
    pm.inputSize_ = m.dim;
    mouse_assert(pm.slots_ > 0,
                 "engine narrower than one SVM request");

    // buildSmallSvmKernel layout: element e bit b of the support
    // vector at sv_base + e*2*inputBits + 2b, of the input likewise
    // above the support vectors.
    pm.xBase_ =
        static_cast<RowAddr>(m.dim * 2 * m.inputBits);
    const unsigned firstFree = 2 * m.dim * 2 * m.inputBits + 8;

    KernelBuilder kb(lib, cfg, 0, firstFree);
    kb.activate(0, static_cast<ColAddr>(pm.slots_ * svs - 1));
    Word square;
    buildSmallSvmKernel(kb, /*sv_rows=*/0, pm.xBase_, m.dim,
                        m.inputBits, m.accBits, square);
    pm.program_ = std::make_shared<const Program>(kb.finish());
    pm.squareRows_ = rowsOf(square);
    mouse_assert(pm.squareRows_.size() <= 64,
                 "SVM square word exceeds host readback width");
    return pm;
}

void
PackedModel::deployWeights(TileGrid &grid) const
{
    Tile &tile = grid.tile(0);
    // Column s*colsPerRequest + u of a weight row holds request
    // column u's bit, the same in every slot.
    const unsigned width = slots_ * colsPerRequest_;
    std::vector<Bit> pattern(colsPerRequest_);
    std::vector<std::uint64_t> rep;
    if (kind_ == Kind::kBnn) {
        for (unsigned i = 0; i < layer_.inputs; ++i) {
            for (unsigned u = 0; u < colsPerRequest_; ++u) {
                pattern[u] = layer_.weights[u][i];
            }
            writePeriodic(tile, static_cast<RowAddr>(4 * i), width,
                          pattern, rep);
        }
        const RowAddr threshBase =
            static_cast<RowAddr>(4 * layer_.inputs + 1);
        for (unsigned b = 0; b < threshBits_; ++b) {
            for (unsigned u = 0; u < colsPerRequest_; ++u) {
                pattern[u] =
                    static_cast<Bit>((layer_.thresholds[u] >> b) & 1);
            }
            writePeriodic(tile, static_cast<RowAddr>(threshBase + 2 * b),
                          width, pattern, rep);
        }
        return;
    }
    for (std::size_t e = 0; e < inputSize_; ++e) {
        for (unsigned b = 0; b < inputBits_; ++b) {
            for (unsigned u = 0; u < colsPerRequest_; ++u) {
                pattern[u] = static_cast<Bit>(
                    (svm_.supportVectors[u][e] >> b) & 1);
            }
            writePeriodic(
                tile, static_cast<RowAddr>(e * 2 * inputBits_ + 2 * b),
                width, pattern, rep);
        }
    }
}

void
PackedModel::packInput(TileGrid &grid, unsigned slot,
                       const Input &in) const
{
    mouse_assert(slot < slots_, "packInput slot out of range");
    mouse_assert(validInput(in), "malformed request payload");
    writeInput(grid.tile(0), slot, in.data());
}

void
PackedModel::clearInput(TileGrid &grid, unsigned slot) const
{
    mouse_assert(slot < slots_, "clearInput slot out of range");
    writeInput(grid.tile(0), slot, nullptr);
}

void
PackedModel::writeInput(Tile &tile, unsigned slot,
                        const std::uint8_t *in) const
{
    // Every column of the slot sees the whole payload.
    const unsigned col = slot * colsPerRequest_;
    for (std::size_t e = 0; e < inputSize_; ++e) {
        const std::uint8_t v = in != nullptr ? in[e] : 0;
        if (kind_ == Kind::kBnn) {
            fillColumns(tile, static_cast<RowAddr>(4 * e + 2), col,
                        colsPerRequest_, static_cast<Bit>(v & 1));
            continue;
        }
        for (unsigned b = 0; b < inputBits_; ++b) {
            fillColumns(tile,
                        static_cast<RowAddr>(xBase_ + e * 2 * inputBits_ +
                                             2 * b),
                        col, colsPerRequest_,
                        static_cast<Bit>((v >> b) & 1));
        }
    }
}

int
PackedModel::readPrediction(const TileGrid &grid, unsigned slot) const
{
    mouse_assert(slot < slots_, "readPrediction slot out of range");
    const Tile &tile = grid.tile(0);
    if (kind_ == Kind::kBnn) {
        int best = 0;
        std::uint64_t bestPop = 0;
        for (unsigned c = 0; c < colsPerRequest_; ++c) {
            const ColAddr col =
                static_cast<ColAddr>(slot * colsPerRequest_ + c);
            const std::uint64_t pop =
                tile.columnWord(countRows_, col);
            if (pop > bestPop) {
                bestPop = pop;
                best = static_cast<int>(c);
            }
        }
        return best;
    }
    // SVM: the array leaves (sv_s . x)^2 truncated to the square
    // word's width; the host finishes the coefficient sum.  The
    // decision is defined on the truncated fixed-point squares —
    // identical arithmetic whether the request ran packed or alone.
    __int128 decision = svm_.bias;
    for (unsigned s = 0; s < colsPerRequest_; ++s) {
        const ColAddr col =
            static_cast<ColAddr>(slot * colsPerRequest_ + s);
        const std::uint64_t sq = tile.columnWord(squareRows_, col);
        decision += static_cast<__int128>(svm_.coefficients[s]) *
                    static_cast<__int128>(sq);
    }
    return decision > 0 ? 1 : 0;
}

bool
PackedModel::validInput(const Input &in) const
{
    if (in.size() != inputSize_) {
        return false;
    }
    const unsigned bits = kind_ == Kind::kBnn ? 1 : inputBits_;
    if (bits >= 8) {
        return true;
    }
    for (std::uint8_t v : in) {
        if (v >> bits) {
            return false;
        }
    }
    return true;
}

} // namespace mouse::serve
