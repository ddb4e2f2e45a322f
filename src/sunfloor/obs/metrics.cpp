#include "sunfloor/obs/metrics.h"

#include <ostream>
#include <stdexcept>

#include "sunfloor/util/strings.h"

namespace sunfloor::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<long long>[bounds_.size() + 1]) {
    if (bounds_.empty())
        throw std::logic_error("histogram needs at least one finite bucket");
    for (std::size_t i = 0; i + 1 < bounds_.size(); ++i)
        if (!(bounds_[i] < bounds_[i + 1]))
            throw std::logic_error(
                "histogram bounds must be strictly increasing");
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        counts_[i].store(0, std::memory_order_relaxed);
}

std::vector<long long> Histogram::bucket_counts() const {
    std::vector<long long> out(bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        out[i] = counts_[i].load(std::memory_order_relaxed);
    return out;
}

Registry& Registry::global() {
    static Registry reg;
    return reg;
}

Counter& Registry::counter(std::string_view name) {
    util::MutexLock lock(mu_);
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        auto c = std::make_unique<Counter>();
        if (parent_) c->parent_ = &parent_->counter(name);
        it = counters_.emplace(std::string(name), std::move(c)).first;
    }
    return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
    util::MutexLock lock(mu_);
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        auto g = std::make_unique<Gauge>();
        if (parent_) g->parent_ = &parent_->gauge(name);
        it = gauges_.emplace(std::string(name), std::move(g)).first;
    }
    return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
    util::MutexLock lock(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        std::unique_ptr<Histogram> h(new Histogram(std::move(bounds)));
        if (parent_)
            h->parent_ = &parent_->histogram(name, h->bounds());
        it = histograms_.emplace(std::string(name), std::move(h)).first;
    } else if (it->second->bounds() != bounds) {
        throw std::logic_error("histogram '" + std::string(name) +
                               "' re-registered with different bounds");
    }
    return *it->second;
}

namespace {

/// %.17g keeps every double exact through a parse round-trip, and it
/// already prints an integral value without a fraction ("3", not "3.0").
std::string json_double(double v) {
    const std::string s = format("%.17g", v);
    return s;
}

std::string quote(const std::string& s) {
    // Instrument names are code-chosen identifiers (dots, dashes,
    // alphanumerics) — no escaping beyond the quotes is ever needed, but
    // guard the JSON anyway.
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

}  // namespace

void Registry::write_json(std::ostream& os) const {
    util::MutexLock lock(mu_);
    os << "{\n  \"schema_version\": 1,\n";
    os << "  \"counters\": {";
    bool first = true;
    for (const auto& [name, c] : counters_) {
        os << (first ? "\n" : ",\n") << "    " << quote(name) << ": "
           << c->value();
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";
    os << "  \"gauges\": {";
    first = true;
    for (const auto& [name, g] : gauges_) {
        os << (first ? "\n" : ",\n") << "    " << quote(name) << ": "
           << json_double(g->value());
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";
    os << "  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : histograms_) {
        os << (first ? "\n" : ",\n") << "    " << quote(name)
           << ": {\"bounds\": [";
        for (std::size_t i = 0; i < h->bounds().size(); ++i)
            os << (i ? ", " : "") << json_double(h->bounds()[i]);
        os << "], \"counts\": [";
        const auto counts = h->bucket_counts();
        for (std::size_t i = 0; i < counts.size(); ++i)
            os << (i ? ", " : "") << counts[i];
        os << "], \"count\": " << h->count()
           << ", \"sum\": " << json_double(h->sum()) << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n}\n";
}

}  // namespace sunfloor::obs
