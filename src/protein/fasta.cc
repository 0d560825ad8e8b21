#include "fasta.hh"

#include <cctype>
#include <fstream>
#include <istream>

#include "amino_acid.hh"
#include "common/logging.hh"
#include "common/strutil.hh"

namespace prose {

std::vector<FastaRecord>
readFasta(std::istream &in)
{
    std::vector<FastaRecord> records;
    std::string line;
    FastaRecord current;
    bool have_record = false;

    auto flush = [&] {
        if (have_record) {
            if (current.sequence.empty())
                fatal("FASTA record '", current.id, "' has no sequence");
            records.push_back(current);
        }
        current = FastaRecord{};
    };

    while (std::getline(in, line)) {
        line = trim(line);
        if (line.empty())
            continue;
        if (line[0] == '>') {
            flush();
            have_record = true;
            const std::string header = line.substr(1);
            const auto space = header.find_first_of(" \t");
            if (space == std::string::npos) {
                current.id = header;
            } else {
                current.id = header.substr(0, space);
                current.comment = trim(header.substr(space + 1));
            }
            if (current.id.empty())
                fatal("FASTA header with empty record id");
        } else {
            if (!have_record)
                fatal("FASTA sequence data before any '>' header");
            for (char ch : toUpper(line)) {
                if (std::isspace(static_cast<unsigned char>(ch)))
                    continue;
                // Residue letters plus the conventional '*' (stop) and
                // '-' (gap) only. Swallowing arbitrary bytes is not
                // just sloppy: a '>' absorbed into a sequence lands at
                // a line start once any 60-column writer re-wraps it,
                // and the re-written file parses as a different record
                // list.
                if (!std::isalpha(static_cast<unsigned char>(ch)) &&
                    ch != '*' && ch != '-')
                    fatal("invalid character '", std::string(1, ch),
                          "' in sequence of FASTA record '", current.id,
                          "'");
                current.sequence.push_back(ch);
            }
        }
    }
    if (in.bad())
        fatal("I/O error while reading FASTA input");
    flush();
    return records;
}

std::vector<FastaRecord>
readFastaFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open FASTA file ", path);
    return readFasta(in);
}

std::string
randomProtein(Rng &rng, std::size_t length)
{
    // Rough UniProt residue frequencies (per mille).
    static const std::pair<char, int> kFreq[] = {
        { 'A', 83 }, { 'C', 14 }, { 'D', 55 }, { 'E', 67 }, { 'F', 39 },
        { 'G', 71 }, { 'H', 23 }, { 'I', 57 }, { 'K', 58 }, { 'L', 97 },
        { 'M', 24 }, { 'N', 41 }, { 'P', 47 }, { 'Q', 39 }, { 'R', 55 },
        { 'S', 67 }, { 'T', 54 }, { 'V', 69 }, { 'W', 11 }, { 'Y', 29 },
    };
    int total = 0;
    for (const auto &[code, weight] : kFreq)
        total += weight;

    std::string protein;
    protein.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
        int draw = static_cast<int>(rng.below(total));
        for (const auto &[code, weight] : kFreq) {
            draw -= weight;
            if (draw < 0) {
                protein.push_back(code);
                break;
            }
        }
    }
    return protein;
}

} // namespace prose
