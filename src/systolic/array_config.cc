#include "array_config.hh"

#include <sstream>

#include "common/logging.hh"

namespace prose {

const char *
toString(ArrayType type)
{
    switch (type) {
      case ArrayType::M:
        return "M";
      case ArrayType::G:
        return "G";
      case ArrayType::E:
        return "E";
    }
    return "?";
}

ArrayGeometry
ArrayGeometry::mType(std::uint32_t dim)
{
    ArrayGeometry g;
    g.type = ArrayType::M;
    g.dim = dim;
    return g;
}

ArrayGeometry
ArrayGeometry::gType(std::uint32_t dim)
{
    ArrayGeometry g;
    g.type = ArrayType::G;
    g.dim = dim;
    g.hasGelu = true;
    return g;
}

ArrayGeometry
ArrayGeometry::eType(std::uint32_t dim)
{
    ArrayGeometry g;
    g.type = ArrayType::E;
    g.dim = dim;
    g.hasExp = true;
    return g;
}

ArrayGeometry
ArrayGeometry::ofType(ArrayType type, std::uint32_t dim)
{
    switch (type) {
      case ArrayType::M:
        return mType(dim);
      case ArrayType::G:
        return gType(dim);
      case ArrayType::E:
        return eType(dim);
    }
    panic("unknown array type");
}

std::string
ArrayGeometry::describe() const
{
    std::ostringstream os;
    os << toString(type) << "-Type " << dim << "x" << dim;
    if (hasGelu)
        os << " +GELU";
    if (hasExp)
        os << " +Exp";
    return os.str();
}

} // namespace prose
