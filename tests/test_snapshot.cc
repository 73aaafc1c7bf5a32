/**
 * @file
 * Tests for the checkpoint/restore subsystem: the
 * `uqsim-snapshot-v1` binary format (strict validation: truncation,
 * bit flips, version/section gating, field-level mismatches), the
 * segmented-run determinism contract (checkpoint placement is
 * invisible to the event stream), replay-validated restore under
 * faults / FlowModel routing / disk I/O, crash recovery
 * (newestValidSnapshot, retention, abort-then-checkpoint ordering),
 * and warm-state forking.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "uqsim/core/engine/run_control.h"
#include "uqsim/json/json_parser.h"
#include "uqsim/models/applications.h"
#include "uqsim/models/stage_presets.h"
#include "uqsim/runner/sweep_runner.h"
#include "uqsim/snapshot/checkpoint.h"
#include "uqsim/snapshot/snapshot.h"

namespace uqsim {
namespace {

namespace fs = std::filesystem;

using json::JsonArray;
using json::JsonValue;
using snapshot::SectionId;
using snapshot::SnapshotFormatError;
using snapshot::SnapshotReader;
using snapshot::SnapshotStateError;
using snapshot::SnapshotWriter;

/** Unique-ish temp dir per test (ctest runs tests in parallel). */
std::string
tempDir(const std::string& stem)
{
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return "snapshot_" + std::string(info->name()) + "_" + stem;
}

struct DirJanitor {
    std::vector<std::string> paths;
    ~DirJanitor()
    {
        for (const std::string& path : paths) {
            std::error_code ignored;
            fs::remove_all(path, ignored);
        }
    }
    const std::string&
    track(const std::string& path)
    {
        paths.push_back(path);
        return paths.back();
    }
};

models::TwoTierParams
twoTierParams(double qps, std::uint64_t seed)
{
    models::TwoTierParams params;
    params.run.qps = qps;
    params.run.seed = seed;
    params.run.warmupSeconds = 0.2;
    params.run.durationSeconds = 0.8;
    return params;
}

std::unique_ptr<Simulation>
makeTwoTier(double qps, std::uint64_t seed)
{
    return Simulation::fromBundle(
        models::twoTierBundle(twoTierParams(qps, seed)));
}

/** Single-service bundle with a scripted crash *and* a network
 *  degradation window, for mid-fault-window checkpoints. */
ConfigBundle
faultyBundle(std::uint64_t seed)
{
    ConfigBundle bundle;
    bundle.options.seed = seed;
    bundle.options.warmupSeconds = 0.1;
    bundle.options.durationSeconds = 1.0;
    bundle.machines = json::parse(
        R"({"wire_latency_us": 5.0, "loopback_latency_us": 1.0,)"
        R"( "machines": [{"name": "front", "cores": 4,)"
        R"( "irq_cores": 0}]})");
    JsonValue svc = JsonValue::makeObject();
    svc.asObject()["service_name"] = std::string("svc");
    svc.asObject()["execution_model"] = std::string("simple");
    JsonArray stages;
    stages.push_back(
        models::processingStage(0, "proc", models::expUs(1000.0)));
    svc.asObject()["stages"] = JsonValue(std::move(stages));
    JsonArray paths;
    paths.push_back(models::pathJson(0, "serve", {0}));
    svc.asObject()["paths"] = JsonValue(std::move(paths));
    bundle.services.push_back(std::move(svc));
    bundle.graph = json::parse(
        R"({"services": [{"service": "svc", "instances":)"
        R"( [{"machine": "front", "threads": 2}]}]})");
    bundle.paths = json::parse(
        R"({"paths": [{"probability": 1.0, "nodes": [{"node_id": 0,)"
        R"( "service": "svc", "path": "serve", "children": []}]}]})");
    bundle.client = json::parse(
        R"({"front_service": "svc", "connections": 64,)"
        R"( "arrival": "poisson", "load": {"type": "constant",)"
        R"( "qps": 3000.0}, "request_bytes": {"type":)"
        R"( "deterministic", "value": 128.0}})");
    bundle.faults = json::parse(
        R"({"faults": [{"type": "crash", "instance": "svc.0",)"
        R"( "at_s": 0.4, "recover_s": 0.6},)"
        R"( {"type": "network", "start_s": 0.3, "end_s": 0.7,)"
        R"( "extra_latency_us": 200.0, "loss_prob": 0.02}]})");
    return bundle;
}

std::uint64_t
straightThroughDigest(const std::function<std::unique_ptr<Simulation>()>&
                          factory)
{
    auto simulation = factory();
    simulation->run();
    return simulation->sim().traceDigest();
}

/** A small but representative snapshot image for format tests. */
std::vector<std::uint8_t>
sampleImage()
{
    SnapshotWriter writer;
    snapshot::SnapshotMeta meta;
    meta.configDigest = 0x1111111111111111ULL;
    meta.masterSeed = 7;
    meta.simTime = 1234567;
    meta.executedEvents = 89;
    meta.traceDigest = 0x2222222222222222ULL;
    writer.setMeta(meta);
    writer.beginSection(SectionId::Engine);
    writer.putU64(42);
    writer.putU32(17);
    writer.putI64(-5);
    writer.putF64(3.25);
    writer.putBool(true);
    writer.putString("hello");
    writer.putU8(9);
    writer.endSection();
    writer.beginSection(SectionId::Stats);
    writer.putU64(99);
    writer.endSection();
    return writer.assemble();
}

// ---------------------------------------------------------------------
// Format: round trip and strict validation

TEST(SnapshotFormat, RoundTripsMetaScalarsAndStrings)
{
    SnapshotReader reader = SnapshotReader::fromBytes(sampleImage());

    EXPECT_EQ(reader.meta().configDigest, 0x1111111111111111ULL);
    EXPECT_EQ(reader.meta().masterSeed, 7u);
    EXPECT_EQ(reader.meta().simTime, 1234567);
    EXPECT_EQ(reader.meta().executedEvents, 89u);
    EXPECT_EQ(reader.meta().traceDigest, 0x2222222222222222ULL);

    ASSERT_EQ(reader.sections().size(), 2u);
    EXPECT_EQ(reader.sections()[0], SectionId::Engine);
    EXPECT_EQ(reader.sections()[1], SectionId::Stats);
    EXPECT_TRUE(reader.hasSection(SectionId::Engine));
    EXPECT_FALSE(reader.hasSection(SectionId::Disks));

    reader.openSection(SectionId::Engine);
    EXPECT_EQ(reader.getU64("a"), 42u);
    EXPECT_EQ(reader.getU32("b"), 17u);
    EXPECT_EQ(reader.getI64("c"), -5);
    EXPECT_EQ(reader.getF64("d"), 3.25);
    EXPECT_TRUE(reader.getBool("e"));
    EXPECT_EQ(reader.getString("f"), "hello");
    EXPECT_EQ(reader.getU8("g"), 9u);
    reader.closeSection();

    reader.openSection(SectionId::Stats);
    EXPECT_NO_THROW(reader.requireU64("x", 99));
    reader.closeSection();
}

TEST(SnapshotFormat, FileRoundTripIsAtomicAndByteIdentical)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("d"));
    fs::create_directories(dir);
    const std::string path = dir + "/sample.uqsnap";

    SnapshotWriter writer;
    writer.beginSection(SectionId::Engine);
    writer.putU64(1);
    writer.endSection();
    writer.writeFile(path);

    // The atomic rename must not leave the temporary behind.
    EXPECT_FALSE(fs::exists(path + ".tmp"));

    std::ifstream in(path, std::ios::binary);
    std::vector<std::uint8_t> on_disk(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    EXPECT_EQ(on_disk, writer.assemble());

    SnapshotReader reader = SnapshotReader::fromFile(path);
    reader.openSection(SectionId::Engine);
    EXPECT_EQ(reader.getU64("v"), 1u);
    reader.closeSection();
}

TEST(SnapshotFormat, RequireMismatchNamesSectionFieldAndBothValues)
{
    SnapshotReader reader = SnapshotReader::fromBytes(sampleImage());
    reader.openSection(SectionId::Engine);
    try {
        reader.requireU64("answer", 43);
        FAIL() << "mismatch not detected";
    } catch (const SnapshotStateError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("ENGINE"), std::string::npos) << what;
        EXPECT_NE(what.find("answer"), std::string::npos) << what;
        EXPECT_NE(what.find("42"), std::string::npos) << what;
        EXPECT_NE(what.find("43"), std::string::npos) << what;
    }
}

TEST(SnapshotFormat, TruncationAtAnyPointIsRejected)
{
    const std::vector<std::uint8_t> image = sampleImage();
    for (std::size_t size : {std::size_t(0), std::size_t(8),
                             image.size() / 2, image.size() - 1,
                             image.size() - 8}) {
        std::vector<std::uint8_t> cut(image.begin(),
                                      image.begin() + size);
        EXPECT_THROW(SnapshotReader::fromBytes(std::move(cut)),
                     SnapshotFormatError)
            << "size " << size;
    }
}

TEST(SnapshotFormat, EveryByteFlipIsRejected)
{
    const std::vector<std::uint8_t> image = sampleImage();
    // The whole-file CRC (or, for footer bytes, the magic / CRC
    // fields themselves) must catch a flip anywhere in the file.
    for (std::size_t i = 0; i < image.size(); ++i) {
        std::vector<std::uint8_t> corrupt = image;
        corrupt[i] ^= 0x01;
        EXPECT_THROW(SnapshotReader::fromBytes(std::move(corrupt)),
                     SnapshotFormatError)
            << "byte " << i;
    }
}

TEST(SnapshotFormat, UnsupportedVersionIsRejected)
{
    std::vector<std::uint8_t> image = sampleImage();
    // Bump the version field (LE u32 at offset 8) and re-seal the
    // whole-file CRC so the version gate itself is what trips.
    image[8] += 1;
    const std::size_t body = image.size() - 16;
    const std::uint64_t crc = snapshot::crc64(image.data(), body);
    for (int i = 0; i < 8; ++i)
        image[body + i] =
            static_cast<std::uint8_t>((crc >> (8 * i)) & 0xFF);
    try {
        SnapshotReader::fromBytes(std::move(image));
        FAIL() << "version gate missing";
    } catch (const SnapshotFormatError& error) {
        EXPECT_NE(std::string(error.what()).find("version"),
                  std::string::npos)
            << error.what();
    }
}

TEST(SnapshotFormat, UnknownSectionIdIsRejected)
{
    SnapshotWriter writer;
    writer.beginSection(static_cast<SectionId>(42));
    writer.putU64(1);
    writer.endSection();
    EXPECT_THROW(SnapshotReader::fromBytes(writer.assemble()),
                 SnapshotFormatError);
}

TEST(SnapshotFormat, DuplicateSectionIdIsRejectedAtWrite)
{
    SnapshotWriter writer;
    writer.beginSection(SectionId::Engine);
    writer.endSection();
    EXPECT_THROW(writer.beginSection(SectionId::Engine),
                 std::logic_error);
}

TEST(SnapshotFormat, UnreadTrailingBytesAreRejected)
{
    SnapshotWriter writer;
    writer.beginSection(SectionId::Engine);
    writer.putU64(1);
    writer.putU64(2);
    writer.endSection();
    SnapshotReader reader =
        SnapshotReader::fromBytes(writer.assemble());
    reader.openSection(SectionId::Engine);
    reader.getU64("first");
    EXPECT_THROW(reader.closeSection(), SnapshotFormatError);
}

TEST(SnapshotFormat, FieldReadPastSectionEndIsRejected)
{
    SnapshotWriter writer;
    writer.beginSection(SectionId::Engine);
    writer.putU32(1);
    writer.endSection();
    SnapshotReader reader =
        SnapshotReader::fromBytes(writer.assemble());
    reader.openSection(SectionId::Engine);
    EXPECT_THROW(reader.getU64("too_wide"), SnapshotFormatError);
}

TEST(SnapshotFormat, MissingSectionIsRejected)
{
    SnapshotReader reader = SnapshotReader::fromBytes(sampleImage());
    EXPECT_THROW(reader.openSection(SectionId::Faults),
                 SnapshotFormatError);
}

// ---------------------------------------------------------------------
// Determinism: segmentation and checkpoint/restore are invisible

TEST(CheckpointDeterminism, SegmentedRunMatchesStraightThrough)
{
    const auto factory = [] { return makeTwoTier(4000.0, 11); };
    auto straight = factory();
    const RunReport straight_report = straight->run();

    auto segmented = factory();
    segmented->advanceToTime(secondsToSimTime(0.13));
    // Odd-sized event chunks, then time again, then the rest.
    while (segmented->advanceToEvents(
               segmented->sim().executedEvents() + 777) ==
               StopReason::EventLimit &&
           simTimeToSeconds(segmented->sim().now()) < 0.4) {
    }
    segmented->advanceToTime(secondsToSimTime(0.61));
    const RunReport segmented_report = segmented->finishRun();

    EXPECT_EQ(segmented->sim().traceDigest(),
              straight->sim().traceDigest());
    EXPECT_EQ(segmented->sim().executedEvents(),
              straight->sim().executedEvents());
    EXPECT_EQ(segmented->sim().now(), straight->sim().now());
    EXPECT_EQ(segmented_report.completed, straight_report.completed);
    EXPECT_EQ(segmented_report.endToEnd.p99Ms,
              straight_report.endToEnd.p99Ms);
}

TEST(CheckpointDeterminism, RestoreReproducesStraightThroughDigest)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("ckpt"));
    const auto factory = [] { return makeTwoTier(5000.0, 3); };
    const std::uint64_t reference = straightThroughDigest(factory);

    auto checkpointed = factory();
    checkpointed->advanceToEvents(5000);
    const std::string path =
        snapshot::writeCheckpoint(*checkpointed, dir, "mid");
    const RunReport checkpointed_report = checkpointed->finishRun();
    EXPECT_EQ(checkpointed->sim().traceDigest(), reference);

    auto restored = factory();
    snapshot::restoreFromSnapshot(*restored, path);
    EXPECT_EQ(restored->sim().executedEvents(), 5000u);
    const RunReport restored_report = restored->finishRun();
    EXPECT_EQ(restored->sim().traceDigest(), reference);
    EXPECT_EQ(restored_report.completed,
              checkpointed_report.completed);
    EXPECT_EQ(restored_report.endToEnd.p99Ms,
              checkpointed_report.endToEnd.p99Ms);
    EXPECT_EQ(restored_report.achievedQps,
              checkpointed_report.achievedQps);
}

TEST(CheckpointDeterminism, MidFaultWindowCheckpointRestoresExactly)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("fault"));
    const auto factory = [] {
        return Simulation::fromBundle(faultyBundle(7));
    };
    const std::uint64_t reference = straightThroughDigest(factory);

    // t = 0.5 s is inside both the crash outage (0.4–0.6) and the
    // network degradation window (0.3–0.7).
    auto checkpointed = factory();
    checkpointed->advanceToTime(secondsToSimTime(0.5));
    const std::string path =
        snapshot::writeCheckpoint(*checkpointed, dir, "infault");
    checkpointed->finishRun();
    EXPECT_EQ(checkpointed->sim().traceDigest(), reference);

    auto restored = factory();
    snapshot::restoreFromSnapshot(*restored, path);
    restored->finishRun();
    EXPECT_EQ(restored->sim().traceDigest(), reference);
}

TEST(CheckpointDeterminism, FlowModelCheckpointRestoresExactly)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("flow"));
    models::FanoutFatTreeParams params;
    params.run.qps = 500.0;
    params.run.seed = 5;
    params.run.warmupSeconds = 0.1;
    params.run.durationSeconds = 0.4;
    params.fanout = 4;
    const auto factory = [&params] {
        ConfigBundle bundle = models::fanoutFatTreeBundle(params);
        // Degrade the fabric mid-run so FlowModel fault state is
        // live at the checkpoint too.
        bundle.faults = json::parse(
            R"({"faults": [{"type": "network", "start_s": 0.15,)"
            R"( "end_s": 0.3, "extra_latency_us": 200.0,)"
            R"( "loss_prob": 0.05}]})");
        return Simulation::fromBundle(std::move(bundle));
    };
    const std::uint64_t reference = straightThroughDigest(factory);

    auto checkpointed = factory();
    checkpointed->advanceToTime(secondsToSimTime(0.2));
    const std::string path =
        snapshot::writeCheckpoint(*checkpointed, dir, "flow");
    checkpointed->finishRun();
    EXPECT_EQ(checkpointed->sim().traceDigest(), reference);

    auto restored = factory();
    snapshot::restoreFromSnapshot(*restored, path);
    restored->finishRun();
    EXPECT_EQ(restored->sim().traceDigest(), reference);
}

TEST(CheckpointDeterminism, DiskTierCheckpointRestoresExactly)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("disk"));
    models::CacheStampedeParams params;
    params.run.qps = 1500.0;
    params.run.seed = 9;
    params.run.warmupSeconds = 0.1;
    params.run.durationSeconds = 0.5;
    params.run.clientConnections = 64;
    const auto factory = [&params] {
        return Simulation::fromBundle(
            models::cacheStampedeBundle(params));
    };
    const std::uint64_t reference = straightThroughDigest(factory);

    auto checkpointed = factory();
    checkpointed->advanceToTime(secondsToSimTime(0.25));
    const std::string path =
        snapshot::writeCheckpoint(*checkpointed, dir, "disk");
    checkpointed->finishRun();
    EXPECT_EQ(checkpointed->sim().traceDigest(), reference);

    auto restored = factory();
    snapshot::restoreFromSnapshot(*restored, path);
    restored->finishRun();
    EXPECT_EQ(restored->sim().traceDigest(), reference);
}

TEST(CheckpointDeterminism, ConfigOrSeedDriftIsAHardError)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("drift"));
    auto original = makeTwoTier(4000.0, 11);
    original->advanceToEvents(2000);
    const std::string path =
        snapshot::writeCheckpoint(*original, dir, "orig");

    auto different_load = makeTwoTier(4500.0, 11);
    EXPECT_THROW(snapshot::restoreFromSnapshot(*different_load, path),
                 SnapshotStateError);

    auto different_seed = makeTwoTier(4000.0, 12);
    EXPECT_THROW(snapshot::restoreFromSnapshot(*different_seed, path),
                 SnapshotStateError);

    // Restore targets must be fresh: a simulation that already
    // executed events cannot be replay-validated.
    auto stale = makeTwoTier(4000.0, 11);
    stale->advanceToEvents(100);
    EXPECT_THROW(snapshot::restoreFromSnapshot(*stale, path),
                 std::logic_error);
}

// ---------------------------------------------------------------------
// Layer state: pinned bytes and field-level validation

/** CRC-64 of @p simulation's assembled snapshot after @p events,
 *  over every byte before the footer: the stored file CRC.  (The
 *  CRC of the whole image is the same constant for every snapshot,
 *  since the image ends with its own CRC and a fixed magic.) */
std::uint64_t
snapshotCrcAt(Simulation& simulation, std::uint64_t events)
{
    simulation.advanceToEvents(events);
    SnapshotWriter writer;
    simulation.saveState(writer);
    const std::vector<std::uint8_t> image = writer.assemble();
    return snapshot::crc64(image.data(), image.size() - 16);
}

TEST(SnapshotBytes, LayerStateImagesArePinned)
{
    // A changed value means the uqsim-snapshot-v1 bytes moved: a
    // field was added, dropped, retyped or reordered.  That needs a
    // kFormatVersion bump, not a new pin.
    auto faulty = Simulation::fromBundle(faultyBundle(7));
    EXPECT_EQ(snapshotCrcAt(*faulty, 7000), 0xf999cd9bd09c909bULL);

    models::FanoutFatTreeParams flow;
    flow.run.qps = 500.0;
    flow.run.seed = 5;
    flow.run.warmupSeconds = 0.1;
    flow.run.durationSeconds = 0.4;
    flow.fanout = 4;
    ConfigBundle flowBundle = models::fanoutFatTreeBundle(flow);
    flowBundle.faults = json::parse(
        R"({"faults": [{"type": "network", "start_s": 0.15,)"
        R"( "end_s": 0.3, "extra_latency_us": 200.0,)"
        R"( "loss_prob": 0.05}]})");
    auto fatTree = Simulation::fromBundle(std::move(flowBundle));
    EXPECT_EQ(snapshotCrcAt(*fatTree, 5000), 0x004c74a6a0abbe43ULL);

    models::CacheStampedeParams disk;
    disk.run.qps = 1500.0;
    disk.run.seed = 9;
    disk.run.warmupSeconds = 0.1;
    disk.run.durationSeconds = 0.5;
    disk.run.clientConnections = 64;
    auto stampede =
        Simulation::fromBundle(models::cacheStampedeBundle(disk));
    EXPECT_EQ(snapshotCrcAt(*stampede, 4000), 0x8f85091357a654b6ULL);
}

/** Adds one to the u64 at @p offset of section @p id's payload and
 *  re-seals the section and whole-file CRC-64s (docs/FORMATS.md), so
 *  the image passes every format check and only the field differs. */
void
bumpFieldAndReseal(std::vector<std::uint8_t>& image, SectionId id,
                   std::size_t offset)
{
    const auto getLe = [&image](std::size_t at, int width) {
        std::uint64_t value = 0;
        for (int i = 0; i < width; ++i)
            value |= std::uint64_t{image[at + i]} << (8 * i);
        return value;
    };
    const auto putLe = [&image](std::size_t at, std::uint64_t value) {
        for (int i = 0; i < 8; ++i)
            image[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
    };
    const std::uint64_t sections = getLe(12, 4);
    for (std::size_t entry = 56; entry < 56 + 32 * sections;
         entry += 32) {
        if (getLe(entry, 4) != static_cast<std::uint64_t>(id))
            continue;
        const std::size_t start = getLe(entry + 8, 8);
        const std::size_t length = getLe(entry + 16, 8);
        ASSERT_LE(offset + 8, length) << snapshot::sectionName(id);
        putLe(start + offset, getLe(start + offset, 8) + 1);
        putLe(entry + 24, snapshot::crc64(image.data() + start, length));
        const std::size_t body = image.size() - 16;
        putLe(body, snapshot::crc64(image.data(), body));
        return;
    }
    FAIL() << "no " << snapshot::sectionName(id) << " section";
}

TEST(CheckpointValidation, ChangedFieldInEachSectionIsNamed)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("field"));
    auto original = Simulation::fromBundle(faultyBundle(7));
    original->advanceToTime(secondsToSimTime(0.5));
    const std::string path =
        snapshot::writeCheckpoint(*original, dir, "orig");
    std::ifstream in(path, std::ios::binary);
    const std::vector<std::uint8_t> image(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());

    struct Case {
        SectionId section;
        std::size_t offset;
        const char* field;
    };
    const Case cases[] = {
        {SectionId::Engine, 64, "queue.pending_digest"},
        {SectionId::Clients, 8, "client0.generated"},
        {SectionId::Dispatcher, 0, "started"},
        // After the u32-length-prefixed model name "constant".
        {SectionId::Network, 12, "transfers"},
        {SectionId::Disks, 0, "disks"},
        {SectionId::Faults, 0, "crashes"},
        {SectionId::Stats, 0, "measured_completions"},
    };
    for (const Case& c : cases) {
        std::vector<std::uint8_t> changed = image;
        bumpFieldAndReseal(changed, c.section, c.offset);
        const std::string bad = dir + "/" + c.field + ".uqsnap";
        std::ofstream(bad, std::ios::binary)
            .write(reinterpret_cast<const char*>(changed.data()),
                   static_cast<std::streamsize>(changed.size()));
        auto restored = Simulation::fromBundle(faultyBundle(7));
        try {
            snapshot::restoreFromSnapshot(*restored, bad);
            ADD_FAILURE() << c.field << ": change not detected";
        } catch (const SnapshotStateError& error) {
            const std::string what = error.what();
            EXPECT_NE(what.find(snapshot::sectionName(c.section)),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find("'" + std::string(c.field) + "'"),
                      std::string::npos)
                << what;
        }
    }
}

// ---------------------------------------------------------------------
// Crash recovery: discovery, retention, abort ordering

TEST(CheckpointRecovery, NewestValidSnapshotSkipsCorruptFiles)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("scan"));
    auto simulation = makeTwoTier(4000.0, 2);
    simulation->advanceToEvents(3000);
    const std::string older =
        snapshot::writeCheckpoint(*simulation, dir, "job");
    simulation->advanceToEvents(6000);
    const std::string newer =
        snapshot::writeCheckpoint(*simulation, dir, "job");

    auto found = snapshot::newestValidSnapshot(dir, "job");
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->path, newer);

    // Truncate the newest: the scan must fall back to the older one.
    {
        std::ifstream in(newer, std::ios::binary);
        std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
        std::ofstream out(newer,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() / 2));
    }
    found = snapshot::newestValidSnapshot(dir, "job");
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->path, older);

    // Corrupt that one too: nothing valid remains.
    {
        std::ofstream out(older, std::ios::binary | std::ios::trunc);
        out << "not a snapshot";
    }
    EXPECT_FALSE(snapshot::newestValidSnapshot(dir, "job")
                     .has_value());
    // Other prefixes never match.
    EXPECT_FALSE(snapshot::newestValidSnapshot(dir, "other")
                     .has_value());
}

TEST(CheckpointRecovery, ManagerRetainsOnlyNewestK)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("keep"));
    auto simulation = makeTwoTier(4000.0, 4);
    snapshot::CheckpointOptions options;
    options.dir = dir;
    options.prefix = "job";
    options.everyEvents = 1500;
    options.keep = 2;
    snapshot::CheckpointManager manager(*simulation, options);
    const RunReport report = manager.run();
    EXPECT_GT(report.completed, 0u);
    ASSERT_GE(manager.written().size(), 3u)
        << "cadence too coarse for the retention test";

    std::vector<std::string> remaining;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(dir))
        remaining.push_back(entry.path().filename().string());
    ASSERT_EQ(remaining.size(), 2u);
    // The survivors are exactly the newest two written.
    const std::vector<std::string>& written = manager.written();
    for (std::size_t i = written.size() - 2; i < written.size(); ++i)
        EXPECT_TRUE(fs::exists(written[i])) << written[i];
    for (std::size_t i = 0; i + 2 < written.size(); ++i)
        EXPECT_FALSE(fs::exists(written[i])) << written[i];

    // A checkpointed run is still bit-identical.
    EXPECT_EQ(simulation->sim().traceDigest(),
              straightThroughDigest([] {
                  return makeTwoTier(4000.0, 4);
              }));
}

TEST(CheckpointRecovery, TimeCadenceCheckpointsAndStaysDeterministic)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("timecad"));
    auto simulation = makeTwoTier(4000.0, 6);
    snapshot::CheckpointOptions options;
    options.dir = dir;
    options.prefix = "job";
    options.everySimSeconds = 0.2;
    options.keep = 0;  // keep everything
    snapshot::CheckpointManager manager(*simulation, options);
    manager.run();
    // 0.8 s horizon / 0.2 s cadence: marks at 0.2, 0.4, 0.6.
    EXPECT_GE(manager.written().size(), 3u);
    EXPECT_EQ(simulation->sim().traceDigest(),
              straightThroughDigest([] {
                  return makeTwoTier(4000.0, 6);
              }));
}

TEST(CheckpointRecovery, AbortWritesFinalCheckpointThatResumes)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("abort"));
    const auto factory = [] { return makeTwoTier(4000.0, 8); };
    const std::uint64_t reference = straightThroughDigest(factory);

    auto aborted = factory();
    RunControl control;
    aborted->setRunControl(&control);
    std::uint64_t completions = 0;
    aborted->setCompletionListener([&](const Job&, double) {
        if (++completions == 200)
            control.requestAbort(AbortReason::External);
    });
    snapshot::CheckpointOptions options;
    options.dir = dir;
    options.prefix = "job";
    options.everyEvents = 1u << 30;  // only the abort checkpoint
    snapshot::CheckpointManager manager(*aborted, options);
    EXPECT_THROW(manager.run(), SimulationAbortError);
    ASSERT_EQ(manager.written().size(), 1u);

    // The abort-point snapshot restores and runs to a bit-identical
    // finish — a SIGKILL'd-harness stand-in at the API level (the
    // process-level SIGKILL test lives in test_harness).
    auto found = snapshot::newestValidSnapshot(dir, "job");
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->meta.executedEvents,
              aborted->sim().executedEvents());
    auto resumed = factory();
    snapshot::restoreFromSnapshot(*resumed, found->path);
    resumed->finishRun();
    EXPECT_EQ(resumed->sim().traceDigest(), reference);
}

// ---------------------------------------------------------------------
// Runner integration: digests invariant across jobs and resume

TEST(CheckpointRunner, DigestsInvariantAcrossJobsAndSnapshotResume)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("grid"));
    const auto factory = [](double qps, std::uint64_t seed) {
        models::ThriftEchoParams params;
        params.run.qps = qps;
        params.run.seed = seed;
        params.run.warmupSeconds = 0.2;
        params.run.durationSeconds = 0.8;
        return Simulation::fromBundle(
            models::thriftEchoBundle(params));
    };
    const std::vector<double> loads = {800.0, 1400.0};

    const auto digestsOf =
        [&](int jobs, bool checkpoint,
            bool resume) -> std::vector<std::uint64_t> {
        runner::RunnerOptions options;
        options.jobs = jobs;
        options.replications = 2;
        if (checkpoint) {
            options.checkpoint.dir = dir;
            options.checkpoint.everyEvents = 2000;
        }
        options.resumeFromSnapshot = resume;
        runner::SweepRunner sweep(options);
        sweep.addSweep("thrift", loads, factory);
        std::vector<std::uint64_t> digests;
        for (const runner::ReplicatedCurve& curve : sweep.run())
            for (const runner::ReplicatedPoint& point : curve.points)
                for (const runner::ReplicationResult& rep :
                     point.replications) {
                    EXPECT_TRUE(rep.ok()) << rep.error;
                    digests.push_back(rep.traceDigest);
                }
        return digests;
    };

    const std::vector<std::uint64_t> baseline =
        digestsOf(1, false, false);
    ASSERT_EQ(baseline.size(), 4u);
    EXPECT_EQ(digestsOf(2, true, false), baseline);
    EXPECT_EQ(digestsOf(8, true, false), baseline);
    // Resume from the snapshots the previous runs left behind:
    // restore replays to the pin and continues bit-identically.
    EXPECT_EQ(digestsOf(2, true, true), baseline);
}

// ---------------------------------------------------------------------
// Warm-state forking

TEST(WarmFork, UnmodifiedForkReplaysReseedDivergesScaleLoads)
{
    DirJanitor janitor;
    const std::string dir = janitor.track(tempDir("fork"));
    const auto factory = [] { return makeTwoTier(4000.0, 21); };
    const std::uint64_t reference = straightThroughDigest(factory);

    auto warm = factory();
    warm->advanceToTime(secondsToSimTime(0.2));
    const std::string path =
        snapshot::writeCheckpoint(*warm, dir, "warm");

    // scale 1.0 / no reseed: the fork IS the original run.
    auto identical =
        snapshot::forkFromSnapshot(factory, path, {});
    const RunReport identical_report = identical->finishRun();
    EXPECT_EQ(identical->sim().traceDigest(), reference);

    // Reseeded fork: same warm state, decorrelated workload.
    snapshot::ForkOptions reseed;
    reseed.reseedToken = 99;
    auto reseeded = snapshot::forkFromSnapshot(factory, path, reseed);
    reseeded->finishRun();
    EXPECT_NE(reseeded->sim().traceDigest(), reference);

    // Load-scaled fork: clearly more offered (and achieved) load.
    snapshot::ForkOptions scaled;
    scaled.loadScale = 1.5;
    auto heavier = snapshot::forkFromSnapshot(factory, path, scaled);
    const RunReport heavier_report = heavier->finishRun();
    EXPECT_NE(heavier->sim().traceDigest(), reference);
    EXPECT_GT(heavier_report.achievedQps,
              identical_report.achievedQps * 1.2);
}

}  // namespace
}  // namespace uqsim
