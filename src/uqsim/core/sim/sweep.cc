#include "uqsim/core/sim/sweep.h"

#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace uqsim {

double
SweepCurve::saturationQps(double tolerance) const
{
    for (const SweepPoint& point : points) {
        if (point.offeredQps <= 0.0)
            continue;
        const double ratio =
            point.report.achievedQps / point.offeredQps;
        if (ratio < 1.0 - tolerance)
            return point.offeredQps;
    }
    return 0.0;
}

double
SweepCurve::tailBeforeSaturationMs(double tolerance) const
{
    double tail = 0.0;
    for (const SweepPoint& point : points) {
        if (point.offeredQps <= 0.0)
            continue;
        const double ratio =
            point.report.achievedQps / point.offeredQps;
        if (ratio < 1.0 - tolerance)
            break;
        tail = point.report.endToEnd.p99Ms;
    }
    return tail;
}

std::string
formatSweepTable(const std::vector<SweepCurve>& curves)
{
    std::ostringstream out;
    out << std::fixed;
    out << std::setw(12) << "load_qps";
    for (const SweepCurve& curve : curves) {
        out << " | " << std::setw(10) << (curve.label + ".ach")
            << ' ' << std::setw(10) << (curve.label + ".mean")
            << ' ' << std::setw(10) << (curve.label + ".p99");
    }
    out << '\n';
    std::size_t rows = 0;
    for (const SweepCurve& curve : curves)
        rows = std::max(rows, curve.points.size());
    for (std::size_t row = 0; row < rows; ++row) {
        double load = 0.0;
        for (const SweepCurve& curve : curves) {
            if (row < curve.points.size()) {
                load = curve.points[row].offeredQps;
                break;
            }
        }
        out << std::setprecision(0) << std::setw(12) << load;
        for (const SweepCurve& curve : curves) {
            if (row >= curve.points.size()) {
                out << " | " << std::setw(10) << '-' << ' '
                    << std::setw(10) << '-' << ' ' << std::setw(10)
                    << '-';
                continue;
            }
            const RunReport& report = curve.points[row].report;
            out << std::setprecision(0) << " | " << std::setw(10)
                << report.achievedQps << std::setprecision(3) << ' '
                << std::setw(10) << report.endToEnd.meanMs << ' '
                << std::setw(10) << report.endToEnd.p99Ms;
        }
        out << '\n';
    }
    return out.str();
}

CapacitySearchResult
findSloCapacity(
    const std::function<std::unique_ptr<Simulation>(double)>& factory,
    double slo_p99_ms, double lo, double hi, double rel_tol,
    double achieved_tol)
{
    if (lo <= 0.0 || hi <= lo)
        throw std::invalid_argument(
            "capacity search needs 0 < lo < hi");
    if (slo_p99_ms <= 0.0)
        throw std::invalid_argument("SLO must be > 0");

    CapacitySearchResult result;
    auto probe = [&](double qps) -> std::pair<bool, RunReport> {
        std::unique_ptr<Simulation> simulation = factory(qps);
        if (!simulation || !simulation->finalized()) {
            throw std::logic_error(
                "capacity factory must return a finalized simulation");
        }
        RunReport report = simulation->run();
        ++result.iterations;
        const bool meets =
            report.endToEnd.p99Ms <= slo_p99_ms &&
            report.achievedQps >= qps * (1.0 - achieved_tol);
        return {meets, std::move(report)};
    };

    auto [lo_ok, lo_report] = probe(lo);
    if (!lo_ok)
        return result;  // even the lower bound violates the SLO
    result.capacityQps = lo;
    result.atCapacity = std::move(lo_report);

    auto [hi_ok, hi_report] = probe(hi);
    if (hi_ok) {
        result.capacityQps = hi;
        result.atCapacity = std::move(hi_report);
        return result;
    }

    double good = lo, bad = hi;
    while (bad - good > rel_tol * bad) {
        const double mid = 0.5 * (good + bad);
        auto [ok, report] = probe(mid);
        if (ok) {
            good = mid;
            result.capacityQps = mid;
            result.atCapacity = std::move(report);
        } else {
            bad = mid;
        }
    }
    return result;
}

std::vector<double>
linspace(double lo, double hi, int count)
{
    if (count <= 0)
        throw std::invalid_argument("linspace count must be > 0");
    std::vector<double> values;
    values.reserve(static_cast<std::size_t>(count));
    if (count == 1) {
        values.push_back(lo);
        return values;
    }
    const double step = (hi - lo) / (count - 1);
    for (int i = 0; i < count; ++i)
        values.push_back(lo + step * i);
    return values;
}

}  // namespace uqsim
