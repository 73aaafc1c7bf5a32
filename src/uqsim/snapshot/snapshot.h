#ifndef UQSIM_SNAPSHOT_SNAPSHOT_H_
#define UQSIM_SNAPSHOT_SNAPSHOT_H_

/**
 * @file
 * Versioned, checksummed binary simulation snapshots
 * (`uqsim-snapshot-v1`, docs/FORMATS.md).
 *
 * A snapshot pins a deterministic run at an exact executed-event
 * count.  The file carries (a) the *replay coordinates* — config
 * digest, master seed, simulation clock, executed-event count, and
 * the engine's running trace digest at the pin — and (b) one
 * *section* per stateful layer (engine, clients, dispatcher,
 * network, disks, faults, stats) holding that layer's serialized
 * state: scalar fields verbatim, large collections as
 * deterministic-order FNV-1a folds.
 *
 * Restore is replay-validated (docs/ARCHITECTURE.md §"Checkpoint /
 * restore"): events are closures, so the pending-event set is not
 * re-materialized from bytes.  Instead the restorer rebuilds the
 * simulation from the identical configuration, replays
 * deterministically to the pinned event count, and then *validates*
 * every layer's live state against its section field by field, with
 * the same per-layer StateVisitor walk that wrote it.  Any
 * divergence — config drift, nondeterminism, corruption that slipped
 * past the checksums — is a hard SnapshotStateError naming the
 * section, the field, and both values.
 *
 * File integrity is layered: magic + version, per-section CRC-64,
 * and a whole-file CRC-64 footer, so truncated or bit-flipped files
 * are rejected at open (SnapshotFormatError) before any replay
 * happens.  Unknown or duplicate section ids are rejected too —
 * a v2 writer's file never half-loads under a v1 reader.
 */

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "uqsim/random/rng.h"

namespace uqsim {
namespace snapshot {

/** Leading file magic ("UQSNAP01") of uqsim-snapshot-v1. */
inline constexpr char kMagic[8] = {'U', 'Q', 'S', 'N',
                                   'A', 'P', '0', '1'};
/** Trailing footer magic. */
inline constexpr char kFooterMagic[8] = {'U', 'Q', 'S', 'N',
                                         'A', 'P', 'E', 'D'};
/** Format version this build reads and writes. */
inline constexpr std::uint32_t kFormatVersion = 1;

/** Base class of every snapshot failure. */
class SnapshotError : public std::runtime_error {
  public:
    using std::runtime_error::runtime_error;
};

/** The file itself is unusable: bad magic, unsupported version,
 *  checksum mismatch, truncation, unknown/duplicate section ids. */
class SnapshotFormatError : public SnapshotError {
  public:
    using SnapshotError::SnapshotError;
};

/** The file parsed, but its state disagrees with the live
 *  simulation: config-digest mismatch, replay divergence, or a
 *  field-level validation failure. */
class SnapshotStateError : public SnapshotError {
  public:
    using SnapshotError::SnapshotError;
};

/** Section identities; ids are part of the on-disk format and must
 *  never be renumbered. */
enum class SectionId : std::uint32_t {
    Engine = 1,      ///< clock, event counters, queue + pool digests
    Clients = 2,     ///< workload generators (RNG, outstanding, counters)
    Dispatcher = 3,  ///< router state, edges, connection pools
    Network = 4,     ///< façade + model (constant / flow) state
    Disks = 5,       ///< per-disk in-flight operations and counters
    Faults = 6,      ///< fault scheduler streams and counters
    Stats = 7,       ///< recorders and measurement counters
};

/** Stable uppercase section name for error messages. */
const char* sectionName(SectionId id);

/** CRC-64/XZ (ECMA-182, reflected) over @p size bytes. */
std::uint64_t crc64(const void* data, std::size_t size);

/**
 * Order-sensitive FNV-1a fold helper for digesting collections into
 * a single u64 section field (byte-wise, endian-independent — the
 * same folding the engine's trace digest uses).
 */
class Digest {
  public:
    void u64(std::uint64_t value);
    void i64(std::int64_t value);
    void u32(std::uint32_t value) { u64(value); }
    /** Folds the exact bit pattern, so -0.0 != +0.0 and NaNs are
     *  compared representation-wise. */
    void f64(double value);
    void boolean(bool value) { u64(value ? 1 : 0); }
    void str(std::string_view text);

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xCBF29CE484222325ULL;  // FNV offset basis
};

/**
 * One walk over a layer's snapshot state.  Each stateful layer has a
 * single `visitState(StateVisitor&) const` that visits its fields in
 * format order, each under its field name, and never changes the
 * simulated state.  A layer's snapshot state is exactly what that
 * walk visits: SnapshotWriter implements the visitor by writing each
 * value, SnapshotReader by requiring the stored value to equal the
 * live one.  Adding, dropping, retyping or reordering a visited field
 * changes the format and requires a kFormatVersion bump.
 */
class StateVisitor {
  public:
    virtual void beginSection(SectionId id) = 0;
    virtual void endSection() = 0;

    virtual void u64(const char* field, std::uint64_t value) = 0;
    virtual void i64(const char* field, std::int64_t value) = 0;
    /** Exact bit pattern, so floating-point state must replay to the
     *  same representation. */
    virtual void f64(const char* field, double value) = 0;
    virtual void boolean(const char* field, bool value) = 0;
    virtual void str(const char* field, std::string_view value) = 0;

    /** A generator's full state (four state words plus the Gaussian
     *  carry) as fields "<name>.word0".."<name>.spare_gaussian", so a
     *  replay that drew one sample more or less names the stream. */
    void rng(const char* name, const random::Rng::State& state);

    /** Prefixes the field names visited during its lifetime with
     *  "<name>."; scopes nest. */
    class Scope {
      public:
        Scope(StateVisitor& visitor, std::string_view name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        StateVisitor& visitor_;
        std::size_t outer_;
    };

  protected:
    /** Visitors are used in place, never deleted through the base. */
    ~StateVisitor() = default;

    /** @p field under the open scopes, for error messages. */
    std::string qualified(const char* field) const
    {
        return prefix_ + field;
    }

  private:
    std::string prefix_;
};

/** Replay coordinates stored in the snapshot header. */
struct SnapshotMeta {
    /** Simulation composition fingerprint
     *  (Simulation::configDigest). */
    std::uint64_t configDigest = 0;
    /** Master seed of the run. */
    std::uint64_t masterSeed = 0;
    /** Simulation clock at the pin (SimTime ticks). */
    std::int64_t simTime = 0;
    /** Executed-event count at the pin. */
    std::uint64_t executedEvents = 0;
    /** Engine trace digest at the pin. */
    std::uint64_t traceDigest = 0;
};

/**
 * Builds a snapshot: set the meta, then for each layer
 * beginSection() / put fields / endSection(), then writeFile().
 * All integers are serialized little-endian at fixed width.  As a
 * StateVisitor it writes every visited value; field names are not
 * stored.
 */
class SnapshotWriter final : public StateVisitor {
  public:
    SnapshotWriter() = default;

    void setMeta(const SnapshotMeta& meta) { meta_ = meta; }
    const SnapshotMeta& meta() const { return meta_; }

    /** Starts section @p id; throws std::logic_error on a duplicate
     *  id or an unclosed previous section. */
    void beginSection(SectionId id) override;
    void endSection() override;

    void putU8(std::uint8_t value);
    void putU32(std::uint32_t value);
    void putU64(std::uint64_t value);
    void putI64(std::int64_t value);
    /** Exact bit pattern of @p value. */
    void putF64(double value);
    void putBool(bool value) { putU8(value ? 1 : 0); }
    /** u32 length + raw bytes. */
    void putString(std::string_view text);

    void u64(const char*, std::uint64_t value) override { putU64(value); }
    void i64(const char*, std::int64_t value) override { putI64(value); }
    void f64(const char*, double value) override { putF64(value); }
    void boolean(const char*, bool value) override { putBool(value); }
    void str(const char*, std::string_view value) override
    {
        putString(value);
    }

    /** Serializes header + section table + payloads + CRC footer. */
    std::vector<std::uint8_t> assemble() const;

    /**
     * Atomically writes the snapshot: the bytes go to
     * "<path>.tmp" (fsynced) and are renamed over @p path, so a
     * crash mid-write never leaves a half-written file under the
     * final name.  @throws SnapshotError on I/O failure.
     */
    void writeFile(const std::string& path) const;

  private:
    struct Section {
        SectionId id;
        std::vector<std::uint8_t> bytes;
    };

    SnapshotMeta meta_;
    std::vector<Section> sections_;
    bool sectionOpen_ = false;
};

/**
 * Parses and fully validates a snapshot, then hands out per-section
 * read cursors.  As a StateVisitor it reads each visited field in
 * write order and requires it to equal the live value; a mismatch
 * throws SnapshotStateError naming the section, the field, and both
 * values.
 */
class SnapshotReader final : public StateVisitor {
  public:
    /** Reads and validates @p path (magic, version, section table,
     *  per-section and whole-file CRCs).
     *  @throws SnapshotFormatError on any structural defect. */
    static SnapshotReader fromFile(const std::string& path);

    /** Same, from an in-memory image (tests, fuzzing). */
    static SnapshotReader fromBytes(std::vector<std::uint8_t> bytes);

    const SnapshotMeta& meta() const { return meta_; }

    bool hasSection(SectionId id) const;
    /** Section ids present, in file order. */
    const std::vector<SectionId>& sections() const { return order_; }

    /** Positions the read cursor at the start of section @p id;
     *  throws SnapshotFormatError when absent. */
    void openSection(SectionId id);
    /** Asserts the open section was fully consumed. */
    void closeSection();

    std::uint8_t getU8(const char* field);
    std::uint32_t getU32(const char* field);
    std::uint64_t getU64(const char* field);
    std::int64_t getI64(const char* field);
    double getF64(const char* field);
    bool getBool(const char* field);
    std::string getString(const char* field);

    // Validation helpers: read the stored value and require it to
    // equal @p live, else throw SnapshotStateError.
    void requireU64(const char* field, std::uint64_t live);
    void requireI64(const char* field, std::int64_t live);
    /** Bitwise comparison (floating-point state must replay to the
     *  exact same representation). */
    void requireF64(const char* field, double live);
    void requireBool(const char* field, bool live);
    void requireString(const char* field, std::string_view live);

    void beginSection(SectionId id) override { openSection(id); }
    void endSection() override { closeSection(); }
    void u64(const char* field, std::uint64_t live) override
    {
        requireU64(qualified(field).c_str(), live);
    }
    void i64(const char* field, std::int64_t live) override
    {
        requireI64(qualified(field).c_str(), live);
    }
    void f64(const char* field, double live) override
    {
        requireF64(qualified(field).c_str(), live);
    }
    void boolean(const char* field, bool live) override
    {
        requireBool(qualified(field).c_str(), live);
    }
    void str(const char* field, std::string_view live) override
    {
        requireString(qualified(field).c_str(), live);
    }

  private:
    struct SectionView {
        std::size_t offset = 0;
        std::size_t length = 0;
    };

    SnapshotReader() = default;
    void parse();
    const std::uint8_t* need(const char* field, std::size_t bytes);
    [[noreturn]] void mismatch(const char* field,
                               const std::string& stored,
                               const std::string& live) const;

    std::vector<std::uint8_t> bytes_;
    SnapshotMeta meta_;
    std::map<SectionId, SectionView> sectionsById_;
    std::vector<SectionId> order_;

    SectionId current_ = SectionId::Engine;
    bool sectionOpen_ = false;
    std::size_t cursor_ = 0;
    std::size_t end_ = 0;
};

}  // namespace snapshot
}  // namespace uqsim

#endif  // UQSIM_SNAPSHOT_SNAPSHOT_H_
