/**
 * @file
 * Full-config assembly harness: configFromSpec must either reject
 * malformed mix/lane text with a clean fatal() or hand back a config
 * that passes validate() — text input must never be able to reach a
 * PROSE_ASSERT abort inside validate().
 */

#include "accel/link_model.hh"
#include "accel/mix_parse.hh"
#include "fuzz_common.hh"

using namespace prose;

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    if (size > fuzz::kMaxInputBytes)
        return 0;
    fuzz::FuzzInput input(data, size);
    const LinkSpec links[] = {
        LinkSpec::nvlink2At80(), LinkSpec::nvlink2At90(),
        LinkSpec::nvlink3At80(), LinkSpec::nvlink3At90(),
        LinkSpec::infinite(),
    };
    const LinkSpec link = input.pick(links);

    const std::string text = input.rest();
    const std::size_t split = text.find('\n');
    const std::string mix_text = text.substr(0, split);
    const std::string lane_text =
        split == std::string::npos ? "" : text.substr(split + 1);

    ProseConfig config;
    const bool accepted = fuzz::guardedParse(
        [&] { config = configFromSpec(mix_text, lane_text, link); });
    if (!accepted)
        return 0;

    // configFromSpec pre-validates, so this must be abort-free.
    config.validate();
    PROSE_ASSERT(config.totalPes() > 0, "accepted config with no PEs");
    for (std::size_t i = 0; i < config.groups.size(); ++i)
        PROSE_ASSERT(config.groups[i].geometry.type == kArrayTypes[i] &&
                         config.groups[i].count > 0,
                     "slot ", i, " does not hold its own type's pool");
    return 0;
}
