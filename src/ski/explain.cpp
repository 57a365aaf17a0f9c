#include "ski/explain.h"

#include <sstream>

namespace jsonski::ski {

using path::ExpectedType;
using path::PathQuery;
using path::PathStep;

namespace {

const char*
typeName(ExpectedType t)
{
    switch (t) {
      case ExpectedType::Object: return "OBJECT";
      case ExpectedType::Array: return "ARRAY";
      case ExpectedType::Any: return "any";
    }
    return "?";
}

} // namespace

std::string
explain(const PathQuery& query)
{
    std::ostringstream out;
    out << query.toString() << "\n";
    if (query.empty()) {
        out << "  level 0  accept : emit the whole record [G3]\n";
        return out.str();
    }
    for (size_t i = 0; i < query.size(); ++i) {
        const PathStep& s = query[i];
        ExpectedType vt = query.expectedTypeAfter(i);
        bool last = i + 1 == query.size();
        out << "  level " << i << "  ";
        switch (s.kind) {
          case PathStep::Kind::Key:
            out << "object : match key \"" << s.key
                << "\" -> value must be " << typeName(vt) << "\n"
                << "           ";
            if (vt != ExpectedType::Any)
                out << "[G1 skip non-" << typeName(vt) << " attrs] ";
            out << "[G2 skip unmatched values] [G4 leave object after "
                   "the match]";
            break;
          case PathStep::Kind::Index:
            out << "array  : element [" << s.lo << "] -> must be "
                << typeName(vt) << "\n           "
                << "[G5 skip elements before/after the index]";
            if (vt != ExpectedType::Any)
                out << " [G1 skip non-" << typeName(vt) << " elements]";
            break;
          case PathStep::Kind::Slice:
            out << "array  : elements [" << s.lo << ":" << s.hi
                << ") -> must be " << typeName(vt) << "\n           "
                << "[G5 skip out-of-range elements]";
            if (vt != ExpectedType::Any)
                out << " [G1 skip non-" << typeName(vt) << " elements]";
            break;
          case PathStep::Kind::Wildcard:
            out << "array  : every element -> must be " << typeName(vt)
                << "\n           ";
            if (vt != ExpectedType::Any)
                out << "[G1 skip non-" << typeName(vt) << " elements]";
            else
                out << "[no element skipping: all elements examined]";
            break;
          case PathStep::Kind::Descendant:
            out << "deep   : match key \"" << s.key
                << "\" at ANY depth\n           "
                << "[type inference disabled: ";
            if (last)
                out << "one key-or-close scan per container jumps to "
                       "candidate keys (G1)]";
            else
                out << "every member is examined, only primitive runs "
                       "fast-forward (G1)]";
            break;
          case PathStep::Kind::Filter: {
            PathQuery one;
            one.steps.push_back(s);
            out << "array  : filter " << one.toString().substr(1)
                << " -> candidates must be OBJECT\n           "
                << "[G1 skip non-OBJECT elements] [G2 skip the rest of "
                   "a failed candidate] [G3 keep a passing candidate]";
            break;
          }
        }
        out << "\n";
        if (last) {
            out << "  level " << i + 1
                << "  accept : emit matched values [G3 skip while "
                   "outputting]\n";
        }
    }
    return out.str();
}

} // namespace jsonski::ski
