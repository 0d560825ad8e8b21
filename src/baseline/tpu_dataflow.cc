#include "tpu_dataflow.hh"

#include "common/logging.hh"
#include "common/units.hh"

namespace prose {

namespace {

// Per-byte movement energies (Horowitz-survey figures).
constexpr double kUnifiedBufferJPerByte = 10e-12; ///< multi-MB on-chip SRAM
constexpr double kWeightJPerByte = 40e-12;        ///< DDR/off-chip weight path
constexpr double kHostLinkJPerByte = 25e-12;      ///< NVLink-class SerDes

} // namespace

double
DataflowTrip::movementEnergyJoules() const
{
    return static_cast<double>(unifiedBufferBytes) * kUnifiedBufferJPerByte +
           static_cast<double>(weightBytes) * kWeightJPerByte +
           static_cast<double>(hostStreamBytes) * kHostLinkJPerByte;
}

DataflowTrip
tpuMatMulTrip(std::uint64_t m, std::uint64_t k, std::uint64_t n,
              std::uint64_t s)
{
    PROSE_ASSERT(m && k && n && s, "empty matmul");
    const std::uint64_t tiles_k = ceilDiv(k, s);
    const std::uint64_t tiles_n = ceilDiv(n, s);

    DataflowTrip trip;
    // Weight-stationary: every (k-tile, n-tile) weight block preloads
    // from the weight FIFO (Figure 11(a) ops 1-2).
    trip.weightBytes = k * n * kBf16Bytes;

    // Matrix A streams host -> Unified Buffer once (op 3) ...
    trip.hostStreamBytes = m * k * kBf16Bytes;
    std::uint64_t ub = m * k; // the initial UB fill (writes)
    // ... then the global dataflow: for each weight block, read the
    // matching A columns from the UB (ops 4-5), and accumulate partial
    // results through the UB across k-tiles (ops 7-8): one partial
    // write per block, one re-read per non-first k-tile.
    ub += tiles_n * m * k;                // A re-reads per n-tile pass
    ub += tiles_k * m * n;                // partial writes
    ub += (tiles_k - 1) * m * n;          // partial re-reads
    ub += m * n;                          // final result read-out
    trip.unifiedBufferBytes = ub * kBf16Bytes;
    trip.hostStreamBytes += m * n * kBf16Bytes; // result to host

    // Steps: 8 distinct operations on the first block, 5 (ops 4-8) on
    // each subsequent block of the same weight load, 8 again per new
    // weight block. Count 8 per weight block + 5 per extra m-pass.
    const std::uint64_t tiles_m = ceilDiv(m, s);
    trip.steps = tiles_k * tiles_n * 8 +
                 tiles_k * tiles_n * (tiles_m > 0 ? tiles_m - 1 : 0) * 5;
    trip.trips = tiles_k; // accumulation passes through the UB
    return trip;
}

DataflowTrip
proseMatMulTrip(std::uint64_t m, std::uint64_t k, std::uint64_t n,
                std::uint64_t s, bool partial_input_buffer)
{
    PROSE_ASSERT(m && k && n && s, "empty matmul");
    const std::uint64_t tiles_m = ceilDiv(m, s);
    const std::uint64_t tiles_n = ceilDiv(n, s);

    DataflowTrip trip;
    // Figure 11(b): four operations per output tile (stream B, stream
    // A, MAC, write back); with the partial input buffer (d) the
    // A-half re-streams are replaced by local reuse (op 2 happens once
    // per tile row).
    trip.steps = tiles_m * tiles_n * 4;
    trip.trips = 1; // one local-dataflow trip, no intermediate storage
    std::uint64_t stream = m * k + k * n * tiles_m; // A once per row; B per row
    if (partial_input_buffer) {
        // B still restreams per tile row unless the host replays it;
        // the partial buffer removes the A restream (already once) and
        // the paper's I/O buffering lets B stream once per task.
        stream = m * k + k * n;
    }
    stream += m * n; // results
    trip.hostStreamBytes = stream * kBf16Bytes;
    return trip;
}

DataflowTrip
tpuMulAddTrip(std::uint64_t m, std::uint64_t n, std::uint64_t s)
{
    PROSE_ASSERT(m && n && s, "empty muladd");
    DataflowTrip trip;
    // Figure 12(a): trip 1 pushes A through the array (identity
    // weights) and Normalization to scale, writing a*A to the UB;
    // trip 2 streams B to stage it in Accumulation; trip 3 re-reads
    // a*A, adds, and writes the result. Three global trips, each
    // costing a UB write and (after the first) a UB read.
    trip.trips = 3;
    trip.steps = 7 * trip.trips;
    const std::uint64_t elems = m * n;
    std::uint64_t ub = 0;
    ub += elems;     // write a*A
    ub += elems;     // write staged B
    ub += 2 * elems; // read both operands back
    ub += elems;     // write a*A + B
    ub += elems;     // read result for the host
    trip.unifiedBufferBytes = ub * kBf16Bytes;
    trip.weightBytes = s * s * kBf16Bytes; // the all-ones weight load
    trip.hostStreamBytes = 3 * elems * kBf16Bytes; // A in, B in, C out
    return trip;
}

DataflowTrip
proseMulAddTrip(std::uint64_t m, std::uint64_t n, std::uint64_t s)
{
    PROSE_ASSERT(m && n && s, "empty muladd");
    const std::uint64_t tiles = ceilDiv(m, s) * ceilDiv(n, s);
    DataflowTrip trip;
    // Figure 12(b): six operations, one local trip; A is already in the
    // accumulators when fused behind a MatMul — counted here standalone
    // (stream A in, rotate-MUL, stream B into the vector register,
    // rotate-ADD, write back).
    trip.trips = 1;
    trip.steps = 6 * tiles;
    trip.hostStreamBytes = 3 * m * n * kBf16Bytes;
    return trip;
}

} // namespace prose
