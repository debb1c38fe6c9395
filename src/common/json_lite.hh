/**
 * @file
 * Minimal recursive-descent parser for the JSON subset the project's
 * config documents use: objects whose values are numbers, strings,
 * or nested objects of the same shape. No arrays, no escapes beyond
 * \" and \\ (model names and docs never need more). Whitespace per
 * RFC 8259.
 *
 * Used by the model-descriptor loader (src/registry/model_file.cc).
 * Parsing is non-throwing: the first failure latches
 * failed()/error() and every later call returns false, so callers
 * chain parse steps and check once at the end.
 */

#ifndef FLEXON_COMMON_JSON_LITE_HH
#define FLEXON_COMMON_JSON_LITE_HH

#include <string>

namespace flexon {

/** See the file comment for the supported JSON subset. */
class MiniJson
{
  public:
    /** The text must outlive the parser (held by reference). */
    explicit MiniJson(const std::string &text) : text_(text) {}

    bool failed() const { return failed_; }
    const std::string &error() const { return error_; }

    void skipWs();

    /** Consume one expected character (after whitespace). */
    bool expect(char c);

    /** True when the next non-whitespace character is `c`. */
    bool peek(char c);

    bool parseString(std::string &out);
    bool parseNumber(double &out);

    /**
     * Parse an object, invoking onField(key) positioned at the
     * value; onField must consume the value (or return false to
     * fail). Callers reject unknown keys through fail().
     */
    template <typename Fn>
    bool parseObject(Fn &&onField)
    {
        if (!expect('{'))
            return false;
        if (peek('}')) {
            ++pos_;
            return true;
        }
        for (;;) {
            std::string key;
            if (!parseString(key) || !expect(':'))
                return false;
            if (!onField(key))
                return false;
            if (peek(',')) {
                ++pos_;
                continue;
            }
            return expect('}');
        }
    }

    /**
     * After a successful top-level parse: require only whitespace to
     * the end of the document (rejects trailing garbage).
     */
    bool atEnd();

    /** Latch the first failure with a byte-offset diagnostic. */
    bool fail(const std::string &why);

  private:
    const std::string &text_;
    size_t pos_ = 0;
    bool failed_ = false;
    std::string error_;
};

} // namespace flexon

#endif // FLEXON_COMMON_JSON_LITE_HH
