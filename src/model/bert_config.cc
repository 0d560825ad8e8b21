#include "bert_config.hh"

#include "common/logging.hh"

namespace prose {

BertConfig
BertConfig::proteinBertBase()
{
    return BertConfig{};
}

BertConfig
BertConfig::tiny()
{
    BertConfig config;
    config.hidden = 64;
    config.layers = 2;
    config.heads = 4;
    config.intermediate = 256;
    config.maxSeqLen = 256;
    return config;
}

BertShape
BertConfig::shape(std::uint64_t batch, std::uint64_t seq_len) const
{
    PROSE_ASSERT(seq_len <= maxSeqLen, "sequence longer than maxSeqLen");
    BertShape shape;
    shape.layers = layers;
    shape.hidden = hidden;
    shape.heads = heads;
    shape.intermediate = intermediate;
    shape.batch = batch;
    shape.seqLen = seq_len;
    return shape;
}

void
BertConfig::validate() const
{
    PROSE_ASSERT(hidden > 0 && layers > 0 && heads > 0 && intermediate > 0,
                 "BertConfig has a zero dimension");
    PROSE_ASSERT(hidden % heads == 0, "heads must divide hidden");
}

} // namespace prose
