/**
 * @file
 * FASTA reader harness. Property beyond "no crash": every accepted
 * record has a non-empty, whitespace-free id and a non-empty sequence of
 * upper-case residue letters, '*' and '-' only — so no byte of an
 * accepted sequence (a '>' above all) can start a new record when the
 * sequence is written back out. This is the invariant that caught the
 * original '>'-swallowed-into-a-sequence bug.
 */

#include <cctype>
#include <sstream>

#include "fuzz_common.hh"
#include "protein/fasta.hh"

using namespace prose;

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    if (size > fuzz::kMaxInputBytes)
        return 0;
    std::vector<FastaRecord> records;
    const bool accepted = fuzz::guardedParse([&] {
        std::istringstream in(fuzz::textFromBytes(data, size));
        records = readFasta(in);
    });
    if (!accepted)
        return 0;

    for (const FastaRecord &record : records) {
        PROSE_ASSERT(!record.id.empty(), "accepted an empty record id");
        for (char ch : record.id)
            PROSE_ASSERT(!std::isspace(static_cast<unsigned char>(ch)),
                         "accepted whitespace inside a record id");
        PROSE_ASSERT(!record.sequence.empty(),
                     "accepted a record without a sequence");
        for (char ch : record.sequence)
            PROSE_ASSERT(std::isupper(static_cast<unsigned char>(ch)) ||
                             ch == '*' || ch == '-',
                         "accepted a non-residue byte in a sequence");
    }
    return 0;
}
