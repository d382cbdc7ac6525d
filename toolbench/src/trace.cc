#include "trace.hh"

#include <algorithm>
#include <cstdio>

namespace symbench
{

int
Tracer::open(const char *name, std::uint64_t unit)
{
    SpanRec r;
    r.name = name;
    r.start = now();
    r.parent = current_;
    r.unit = unit;
    spans_.push_back(std::move(r));
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
}

void
Tracer::close(int idx)
{
    SpanRec &r = spans_[static_cast<std::size_t>(idx)];
    r.end = now();
    current_ = r.parent;
}

double
Tracer::total(const std::string &name) const
{
    double s = 0;
    for (const SpanRec &r : spans_)
        if (r.name == name)
            s += r.end - r.start;
    return s;
}

std::map<std::string, double>
Tracer::selfByLayer() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] += spans_[i].end - spans_[i].start;
    for (const SpanRec &r : spans_)
        if (r.parent >= 0)
            self[static_cast<std::size_t>(r.parent)] -= r.end - r.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const std::string &n = spans_[i].name;
        out[n.substr(0, n.find('.'))] += self[i];
    }
    return out;
}

double
Tracer::uncovered(double from, double to) const
{
    // Top-level spans are disjoint and start in order; children lie
    // inside their parents.
    double covered = 0;
    for (const SpanRec &r : spans_)
        if (r.parent < 0)
            covered += std::max(0.0, std::min(r.end, to) -
                                         std::max(r.start, from));
    return std::max(0.0, (to - from) - covered);
}

double
Tracer::longestUnit() const
{
    std::map<std::uint64_t, double> perUnit;
    for (const SpanRec &r : spans_)
        if (r.parent < 0 || spans_[static_cast<std::size_t>(r.parent)]
                                    .unit != r.unit)
            perUnit[r.unit] += r.end - r.start;
    double best = 0;
    for (const auto &[unit, s] : perUnit)
        best = std::max(best, s);
    return best;
}

std::string
Tracer::json() const
{
    std::string out = "{\"spans\":[";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &r = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,"
                      "\"end\":%.9f,\"parent\":%d,\"unit\":%llu}",
                      i ? "," : "", i, r.name.c_str(), r.start, r.end,
                      r.parent, static_cast<unsigned long long>(r.unit));
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

} // namespace symbench
