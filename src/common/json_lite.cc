#include "common/json_lite.hh"

#include <cctype>
#include <cstdlib>

namespace flexon {

void
MiniJson::skipWs()
{
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
}

bool
MiniJson::expect(char c)
{
    skipWs();
    if (pos_ >= text_.size() || text_[pos_] != c)
        return fail(std::string("expected '") + c + "'");
    ++pos_;
    return true;
}

bool
MiniJson::peek(char c)
{
    skipWs();
    return pos_ < text_.size() && text_[pos_] == c;
}

bool
MiniJson::parseString(std::string &out)
{
    skipWs();
    if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected string");
    ++pos_;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
        char c = text_[pos_++];
        if (c == '\\' && pos_ < text_.size())
            c = text_[pos_++];
        out.push_back(c);
    }
    if (pos_ >= text_.size())
        return fail("unterminated string");
    ++pos_; // closing quote
    return true;
}

bool
MiniJson::parseNumber(double &out)
{
    skipWs();
    const char *start = text_.c_str() + pos_;
    char *end = nullptr;
    out = std::strtod(start, &end);
    if (end == start)
        return fail("expected number");
    pos_ += static_cast<size_t>(end - start);
    return true;
}

bool
MiniJson::atEnd()
{
    skipWs();
    if (pos_ != text_.size())
        return fail("trailing content after document");
    return true;
}

bool
MiniJson::fail(const std::string &why)
{
    if (!failed_) {
        failed_ = true;
        error_ = why + " at offset " + std::to_string(pos_);
    }
    return false;
}

} // namespace flexon
