#include "spans.h"

#include <chrono>
#include <fstream>

#include "util/logging.h"

namespace perfbench {

namespace {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

std::size_t
SpanRecorder::begin(const char* name, uint64_t count)
{
    Record r;
    r.name = name;
    r.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    r.count = count;
    r.start_ns = nowNs();
    records_.push_back(r);
    child_ns_.push_back(0);
    open_.push_back(records_.size() - 1);
    return records_.size() - 1;
}

void
SpanRecorder::end(std::size_t index)
{
    RECSIM_ASSERT(!open_.empty() && open_.back() == index,
                  "span {} closed out of order", index);
    open_.pop_back();
    Record& r = records_[index];
    r.end_ns = nowNs();
    if (r.parent >= 0)
        child_ns_[static_cast<std::size_t>(r.parent)] +=
            r.end_ns - r.start_ns;
}

double
SpanRecorder::selfMs(std::size_t index) const
{
    const Record& r = records_[index];
    return static_cast<double>(r.end_ns - r.start_ns - child_ns_[index]) *
        1e-6;
}

std::vector<double>
SpanRecorder::selfTimesMs(const std::string& name) const
{
    std::vector<double> out;
    for (std::size_t i = 0; i < records_.size(); ++i)
        if (name == records_[i].name)
            out.push_back(selfMs(i));
    return out;
}

std::vector<double>
SpanRecorder::sumPerRootMs(const std::string& root,
                           const std::string& name) const
{
    // Records are in begin order, so a parent always precedes its
    // children and one forward pass resolves each span's root slot.
    std::vector<int64_t> slot(records_.size(), -1);
    std::vector<double> out;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record& r = records_[i];
        if (root == r.name) {
            slot[i] = static_cast<int64_t>(out.size());
            out.push_back(0.0);
            continue;
        }
        if (r.parent >= 0)
            slot[i] = slot[static_cast<std::size_t>(r.parent)];
        if (slot[i] >= 0 && name == r.name)
            out[static_cast<std::size_t>(slot[i])] += selfMs(i);
    }
    return out;
}

uint64_t
SpanRecorder::totalCount(const std::string& name) const
{
    uint64_t total = 0;
    for (const auto& r : records_)
        if (name == r.name)
            total += r.count;
    return total;
}

bool
SpanRecorder::writeChromeTrace(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const uint64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record& r = records_[i];
        out << (i ? ",\n" : "\n") << "{\"name\": \"" << r.name
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << static_cast<double>(r.start_ns - t0) * 1e-3
            << ", \"dur\": "
            << static_cast<double>(r.end_ns - r.start_ns) * 1e-3
            << ", \"args\": {\"id\": " << i << ", \"parent\": "
            << r.parent << ", \"count\": " << r.count
            << ", \"self_ms\": " << selfMs(i) << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
