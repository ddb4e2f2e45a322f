// Command-line flags as rows of one table, shared by every front end:
// the sunfloor_cli subcommands, sunfloord and sunfloor_shard_worker.
//
// A row names a flag, shows its value in the usage line and parses the
// value into its target. A row is a value kind (an_int, a_positive,
// a_seed, a_choice, ...) bound to a target: flag() stores one value,
// one_flag() stores one value as a one-element vector and list_flag() a
// comma list, so a knob reads the same way in every subcommand that
// takes it. Flags::parse consumes argv against the rows; every parse
// error is one of
//
//   missing value for --x
//   bad --x value 'v' (expected ...)
//   unknown option '--x'
//
// followed by the usage line generated from the rows, and the caller
// exits 2. Rules that relate flags to each other run after the parse,
// on the parsed values and seen(), never on flag order.
#pragma once

#include <climits>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sunfloor/util/strings.h"

namespace sunfloor::tools {

/// How one value parses: its usage-line metavar, the "(expected ...)"
/// clause of a bad value, and the parser (false on a bad value).
template <typename T>
struct Kind {
    std::string metavar;
    std::string expected;
    std::function<bool(const std::string&, T&)> parse;
};

inline Kind<int> an_int(int min = INT_MIN, std::string metavar = "N") {
    return {std::move(metavar),
            min == INT_MIN ? "an integer" : format("an integer >= %d", min),
            [min](const std::string& s, int& v) {
                return parse_int(s, v) && v >= min;
            }};
}

inline Kind<long long> an_int64(long long min) {
    return {"N", format("an integer >= %lld", min),
            [min](const std::string& s, long long& v) {
                return parse_int64(s, v) && v >= min;
            }};
}

/// Every --seed and --gen-seed, so a one-shot run reproduces a served
/// job.
inline Kind<long long> a_seed() {
    return {"N", "an integer in 0..2^63-1",
            [](const std::string& s, long long& v) {
                return parse_int64(s, v) && v >= 0;
            }};
}

inline Kind<double> a_number(std::string metavar) {
    return {std::move(metavar), "a finite number",
            [](const std::string& s, double& v) {
                return parse_double(s, v);
            }};
}

inline Kind<double> a_positive(std::string metavar) {
    return {std::move(metavar), "a finite number > 0",
            [](const std::string& s, double& v) {
                return parse_double(s, v) && v > 0.0;
            }};
}

inline Kind<double> a_non_negative(std::string metavar) {
    return {std::move(metavar), "a finite number >= 0",
            [](const std::string& s, double& v) {
                return parse_double(s, v) && v >= 0.0;
            }};
}

inline Kind<std::string> a_string(std::string metavar) {
    return {std::move(metavar), "a string",
            [](const std::string& s, std::string& v) {
                v = s;
                return true;
            }};
}

/// An enum through its enum_names codec: `from` is the module's
/// x_from_string, `choices` its x_choices().
template <typename E>
Kind<E> a_choice(bool (*from)(const std::string&, E&), std::string choices) {
    return {choices, choices, from};
}

/// One row of the table.
struct Flag {
    std::string name;
    std::string metavar;  ///< empty for a switch, which takes no value
    std::string expected;
    /// Store the value in the target; false names the bad token in `bad`.
    std::function<bool(const std::string& value, std::string& bad)> set;
    bool stop = false;  ///< a switch that ends the parse
};

namespace detail {

template <typename T, typename Store>
Flag scalar_flag(std::string name, Kind<T> k, Store store) {
    return {std::move(name), k.metavar, k.expected,
            [parse = std::move(k.parse), store](const std::string& v,
                                                std::string& bad) {
                T t{};
                if (!parse(v, t)) {
                    bad = v;
                    return false;
                }
                store(std::move(t));
                return true;
            }};
}

}  // namespace detail

template <typename T>
Flag flag(std::string name, T& out, Kind<T> k) {
    return detail::scalar_flag(std::move(name), std::move(k),
                               [&out](T t) { out = std::move(t); });
}

/// One value stored as `{value}`: a list-valued knob that this command
/// takes singly (synth's --max-ill, simulate's --freq).
template <typename T>
Flag one_flag(std::string name, std::vector<T>& out, Kind<T> k) {
    return detail::scalar_flag(std::move(name), std::move(k),
                               [&out](T t) { out = {std::move(t)}; });
}

/// A comma list ("--freq 400,500"); a repeated flag replaces the list.
template <typename T>
Flag list_flag(std::string name, std::vector<T>& out, Kind<T> k) {
    return {std::move(name), k.metavar + "[,...]", k.expected,
            [parse = std::move(k.parse), &out](const std::string& v,
                                               std::string& bad) {
                std::vector<T> values;
                for (const std::string& part : split(v, ',')) {
                    T t{};
                    if (!parse(part, t)) {
                        bad = part;
                        return false;
                    }
                    values.push_back(std::move(t));
                }
                out = std::move(values);
                return true;
            }};
}

/// A switch: the flag alone sets `out` to `value`.
inline Flag switch_flag(std::string name, bool& out, bool value = true) {
    return {std::move(name), "", "",
            [&out, value](const std::string&, std::string&) {
                out = value;
                return true;
            }};
}

/// The rows both daemons share.
inline std::vector<Flag> listener_flags(std::string& listen,
                                        int& conn_threads,
                                        long long& max_frame_bytes) {
    return {flag("--listen", listen, a_string("path|host:port")),
            flag("--conn-threads", conn_threads, an_int(1)),
            flag("--max-frame-bytes", max_frame_bytes, an_int64(1024))};
}

class Flags {
  public:
    /// `command` opens the usage line, e.g. "sunfloor_cli explore".
    explicit Flags(std::string command) : command_(std::move(command)) {}

    Flags& add(const std::vector<Flag>& rows) {
        rows_.insert(rows_.end(), rows.begin(), rows.end());
        return *this;
    }

    /// Parse argv[first..argc) against the rows. False after printing
    /// the error and the usage line; the caller exits 2.
    bool parse(int argc, char** argv, int first) {
        for (int i = first; i < argc; ++i) {
            const std::string arg = argv[i];
            const Flag* f = find(arg);
            if (!f) return fail(format("unknown option '%s'", arg.c_str()));
            std::string value;
            if (!f->metavar.empty()) {
                if (i + 1 == argc) return fail("missing value for " + arg);
                value = argv[++i];
            }
            std::string bad;
            if (!f->set(value, bad))
                return fail(format("bad %s value '%s' (expected %s)",
                                   arg.c_str(), bad.c_str(),
                                   f->expected.c_str()));
            seen_.insert(arg);
            if (f->stop) break;
        }
        return true;
    }

    /// True when `name` was on the command line.
    bool seen(const std::string& name) const { return seen_.count(name) > 0; }

    /// The first of `rows` (in row order) that was on the command line,
    /// or "" when none was.
    std::string first_seen(const std::vector<Flag>& rows) const {
        for (const Flag& f : rows)
            if (seen(f.name)) return f.name;
        return "";
    }

    /// Print `message` and the usage line to stderr. Returns 2, the exit
    /// code of every usage error.
    int error(const std::string& message) const {
        std::fprintf(stderr, "%s\n%s\n", message.c_str(), usage().c_str());
        return 2;
    }

    /// "usage: <command> [--flag metavar] ...", wrapped at 79 columns.
    std::string usage() const {
        std::string out = "usage: " + command_;
        std::size_t line_start = 0;
        for (const Flag& f : rows_) {
            std::string item = " [" + f.name;
            if (!f.metavar.empty()) item += " " + f.metavar;
            item += "]";
            if (out.size() - line_start + item.size() > 79) {
                line_start = out.size() + 1;
                out += "\n      ";
            }
            out += item;
        }
        return out;
    }

  private:
    const Flag* find(const std::string& name) const {
        for (const Flag& f : rows_)
            if (f.name == name) return &f;
        return nullptr;
    }

    bool fail(const std::string& message) const {
        error(message);
        return false;
    }

    std::string command_;
    std::vector<Flag> rows_;
    std::set<std::string> seen_;
};

}  // namespace sunfloor::tools
