/**
 * @file
 * Mix/lane spec parser harness. Input is split at the first newline:
 * first line fuzzes parseMixSpec, the rest fuzzes parseLaneSpec.
 * Accepted mixes must obey the documented bounds (nonzero dims and
 * counts in every listed pool) and keep each type in its own slot.
 */

#include "accel/mix_parse.hh"
#include "fuzz_common.hh"

using namespace prose;

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    if (size > fuzz::kMaxInputBytes)
        return 0;
    const std::string text = fuzz::textFromBytes(data, size);
    const std::size_t split = text.find('\n');
    const std::string mix_text = text.substr(0, split);
    const std::string lane_text =
        split == std::string::npos ? "" : text.substr(split + 1);

    ArrayPools pools;
    if (fuzz::guardedParse([&] { pools = parseMixSpec(mix_text); })) {
        std::uint64_t arrays = 0;
        for (std::size_t i = 0; i < pools.size(); ++i) {
            const ArrayGroupSpec &pool = pools[i];
            PROSE_ASSERT(pool.geometry.type == kArrayTypes[i],
                         "slot ", i, " holds the wrong array type");
            arrays += pool.count;
            if (pool.count == 0)
                continue; // a type the spec left out
            PROSE_ASSERT(pool.geometry.dim > 0 && pool.geometry.dim <= 4096,
                         "accepted out-of-bounds array dimension");
            PROSE_ASSERT(pool.count <= 65536,
                         "accepted out-of-bounds array count");
        }
        PROSE_ASSERT(arrays > 0, "accepted mix spec with no arrays");
    }

    LanePartition lanes;
    if (fuzz::guardedParse([&] { lanes = parseLaneSpec(lane_text); }))
        PROSE_ASSERT(lanes.total() > 0, "accepted an empty lane split");
    return 0;
}
