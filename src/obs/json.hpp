/**
 * @file
 * Minimal JSON value type for the observability subsystem.
 *
 * The trace exporter and run-report builder need to *emit* JSON, and
 * the test suite needs to *parse* what was emitted (round-trip
 * validity is an acceptance criterion), all without external
 * dependencies.  This is a deliberately small implementation:
 *
 *  - Objects preserve insertion order (a report schema reads better
 *    with `schema_version` first) and reject duplicate keys.
 *  - Numbers serialize with the shortest representation that
 *    round-trips through the locale-independent parseDouble (same
 *    policy as testing/golden), so emitted files are byte-stable
 *    across platforms and locales.
 *  - Non-finite doubles serialize as `null` (JSON has no NaN/Inf).
 *  - The parser accepts exactly RFC 8259 JSON; it exists for tests
 *    and the CLI, not as a general-purpose library.
 */

#ifndef AMPED_OBS_JSON_HPP
#define AMPED_OBS_JSON_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace amped::obs {

/**
 * Canonical text for a double: shortest precision that survives a
 * strtod round trip; `nan` / `inf` / `-inf` for non-finite values
 * (callers that need strict JSON map those to null).
 */
std::string formatDouble(double value);

/** Escapes and quotes @p text per RFC 8259. */
std::string quoteJsonString(const std::string &text);

/** Insertion-ordered JSON value. */
class Json
{
  public:
    enum class Kind { null, boolean, number, integer, string, array,
                      object };

    Json() : kind_(Kind::null) {}
    Json(std::nullptr_t) : kind_(Kind::null) {}
    Json(bool b) : kind_(Kind::boolean), bool_(b) {}
    Json(double d) : kind_(Kind::number), number_(d) {}
    Json(std::int64_t i) : kind_(Kind::integer), integer_(i) {}
    Json(int i) : Json(static_cast<std::int64_t>(i)) {}
    Json(unsigned u) : Json(static_cast<std::int64_t>(u)) {}
    Json(std::uint64_t u); // size_t on LP64; degrades to double
                           // above int64 max.
    Json(const char *s) : kind_(Kind::string), string_(s) {}
    Json(std::string s)
        : kind_(Kind::string), string_(std::move(s)) {}

    static Json array();
    static Json object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::null; }
    bool isObject() const { return kind_ == Kind::object; }
    bool isArray() const { return kind_ == Kind::array; }

    /// Numeric value of a number *or* integer node.
    double asDouble() const;
    std::int64_t asInt() const;
    bool asBool() const;
    const std::string &asString() const;

    /** Array: appends an element.  @throws UserError on non-array. */
    Json &push(Json value);
    const std::vector<Json> &items() const;
    std::size_t size() const;
    /** Array/object: true when size() == 0.  @throws on scalars. */
    bool empty() const { return size() == 0; }
    const Json &at(std::size_t index) const;

    /**
     * Object: sets key (must be new — duplicate keys throw).
     * @returns *this for chaining.
     */
    Json &set(const std::string &key, Json value);
    /** Object: true when @p key is present. */
    bool contains(const std::string &key) const;
    /** Object: member access.  @throws UserError when absent. */
    const Json &at(const std::string &key) const;
    const std::vector<std::pair<std::string, Json>> &members() const;

    /**
     * Serializes to text.  @p indent > 0 pretty-prints with that many
     * spaces per level; 0 emits compact single-line output.
     */
    std::string dump(int indent = 0) const;

    /**
     * Deepest array/object nesting parse() accepts.  The parser is
     * recursive, so the cap bounds its stack use: one request line
     * of nested brackets must not overflow a server's stack.
     */
    static constexpr std::size_t kMaxParseDepth = 256;

    /**
     * Parses RFC 8259 text.  @throws UserError on malformed input or
     * on nesting deeper than kMaxParseDepth.
     */
    static Json parse(const std::string &text);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_;
    bool bool_ = false;
    double number_ = 0.0;
    std::int64_t integer_ = 0;
    std::string string_;
    std::vector<Json> array_;
    std::vector<std::pair<std::string, Json>> object_;
};

} // namespace amped::obs

#endif // AMPED_OBS_JSON_HPP
