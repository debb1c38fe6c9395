/**
 * @file
 * Connectivity providers: one row-oriented interface over three
 * synapse-storage strategies.
 *
 * The delivery engine (snn/routing.hh) consumes connectivity as
 * *rows*: for a fired source neuron and a target shard, the list of
 * delay-bucket runs of {ring cell, weight} delivery records. A
 * ConnectivityProvider answers that query — rowSpan() — from one of
 * three representations:
 *
 *  - **materialized**: the precompiled RoutingTable CSR (PR 3/PR 6).
 *    rowSpan() is a zero-copy view of the source-major mirror; the
 *    SpikeRouter additionally keeps its direct fast paths over the
 *    table, so this mode is byte-for-byte the previous engine.
 *  - **compressed**: per-(source, shard) delta/varint-encoded blobs
 *    (see DESIGN.md §12 for the row format), decoded on delivery
 *    into a per-shard scratch buffer. ~6× smaller than the
 *    materialized records at microcircuit densities.
 *  - **procedural**: nothing stored per synapse at all. Rows are
 *    regenerated from the network's ConnectivitySpec (counter-based
 *    per-source RNG, Network::rowFor): prepareStep() decodes each
 *    fired row once per step, for every shard, into flat arrays that
 *    are reused from step to step. No row is kept across steps —
 *    delivery writes are undone from the router's cell lists, not
 *    by decoding the row again. STDP updates live in the network's
 *    sparse weight-delta overlay. Memory is O(neurons) plus one
 *    step's fired rows, so networks that OOM under materialized
 *    storage run.
 *
 * All three providers expose identical shard/bucket geometry (built
 * by buildConnectivityGeometry from the same inputs) and yield the
 * same per-cell weight-addition order, so spike trains are
 * bit-identical across providers at any thread count.
 */

#ifndef FLEXON_SNN_CONNECTIVITY_HH
#define FLEXON_SNN_CONNECTIVITY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "snn/network.hh"

namespace flexon {

namespace telemetry {
class Registry;
}

class RoutingTable;

/** One delivery: ring cell (target * maxSynapseTypes + type) and
 *  the weight to accumulate into it. */
struct DeliveryRecord
{
    uint32_t cell;
    float weight;
};

/** Available connectivity representations. */
enum class ConnectivityKind {
    Materialized, ///< precompiled CSR routing table (default)
    Compressed,   ///< delta/varint row blobs, decoded on delivery
    Procedural,   ///< rows regenerated from the spec'd RNG
};

/** Printable kind name ("materialized" / "compressed" /
 *  "procedural"). */
const char *connectivityKindName(ConnectivityKind kind);

/** Parse a kind name; returns false on anything else. */
bool parseConnectivityKind(const std::string &text,
                           ConnectivityKind &out);

/**
 * Packed bucket-run header: delay-bucket index in the top byte, run
 * length (record count) in the low 24 bits. Identical to the
 * RoutingTable source-major mirror's header packing, so materialized
 * views need no translation.
 */
constexpr uint32_t
packRunHeader(uint32_t bucket, uint32_t length)
{
    return (bucket << 24) | length;
}

constexpr uint32_t
runHeaderBucket(uint32_t header)
{
    return header >> 24;
}

constexpr uint32_t
runHeaderLength(uint32_t header)
{
    return header & 0xFFFFFFu;
}

/**
 * Shard/bucket layout shared by every provider (and by the
 * RoutingTable itself — it builds from the same function, which is
 * what makes cross-provider geometry equality structural rather
 * than coincidental).
 */
struct ConnectivityGeometry
{
    size_t shardCount = 1;
    /** Target-neuron boundary of each shard (size shardCount + 1),
     *  balanced by incoming synapse count. */
    std::vector<uint32_t> shardTargetBegin;
    /** Ascending list of delays actually used by some synapse. */
    std::vector<uint8_t> bucketDelay;
    /** delay -> bucket index (valid for delays in bucketDelay). */
    std::array<uint8_t, 256> bucketOf{};
    /** target neuron -> owning shard (O(1) shard lookup). */
    std::vector<uint32_t> shardOf;
};

/**
 * Build the delivery geometry for a finalized network: clamp the
 * shard request to the pool width and the neuron count, split
 * targets into contiguous shards of balanced incoming-synapse load,
 * and enumerate the realized delay buckets.
 */
ConnectivityGeometry
buildConnectivityGeometry(const Network &network, size_t shardCount);

/**
 * Per-shard scratch space rowSpan() may decode into. One instance
 * per target shard (never shared between lanes); a view returned by
 * rowSpan() is valid until the next rowSpan() call with the same
 * scratch instance.
 */
struct RowScratch
{
    std::vector<uint32_t> runs;           ///< packed run headers
    std::vector<DeliveryRecord> records;  ///< run-major records
    std::vector<Synapse> synapses;        ///< raw regenerated row
    std::vector<uint32_t> counts;         ///< counting-sort bins
};

/**
 * Decoded delivery row of one (source, shard): bucket runs in
 * ascending bucket order over a contiguous record array. Within a
 * run, records for the same ring cell appear in a fixed
 * provider-independent relative order, so floating-point
 * accumulation per cell is identical across providers.
 */
struct RowView
{
    std::span<const uint32_t> runs;
    const DeliveryRecord *records = nullptr;
};

/**
 * Abstract connectivity source. Geometry accessors are non-virtual
 * (they read the shared ConnectivityGeometry) so the router's hot
 * paths pay a virtual call only per fired row, not per record.
 *
 * Threading contract: rowSpan() is const and safe to call from
 * concurrent lanes as long as each lane passes its own RowScratch;
 * prepareStep() and refreshWeights() are serial (between lane
 * dispatches) and are where any internal state may mutate.
 */
class ConnectivityProvider
{
  public:
    virtual ~ConnectivityProvider() = default;

    ConnectivityKind kind() const { return kind_; }
    const ConnectivityGeometry &geometry() const { return geo_; }
    size_t shardCount() const { return geo_.shardCount; }
    size_t bucketCount() const { return geo_.bucketDelay.size(); }
    uint8_t bucketDelay(size_t bucket) const
    {
        return geo_.bucketDelay[bucket];
    }
    const std::vector<uint32_t> &shardTargetBegin() const
    {
        return geo_.shardTargetBegin;
    }
    size_t shardOfCell(uint32_t cell) const
    {
        return geo_.shardOf[cell / maxSynapseTypes];
    }

    /** True when per-source masks are exact (bucketCount <= 64). */
    bool rowMasksExact() const { return masksExact_; }
    /** Per-shard activity masks of a source row (shardCount
     *  words; bit b set iff the row reaches bucket b there). */
    const uint64_t *rowMaskRow(uint32_t src) const
    {
        return maskData_ + static_cast<size_t>(src) * geo_.shardCount;
    }
    uint64_t rowMask(uint32_t src, size_t shard) const
    {
        return rowMaskRow(src)[shard];
    }

    /** Decode the delivery row of (src, shard). */
    virtual RowView rowSpan(uint32_t src, size_t shard,
                            RowScratch &scratch) const = 0;

    /** Serial pre-delivery hook, called every step (e.g. decode
     *  this step's fired rows). */
    virtual void prepareStep(std::span<const uint32_t> fired)
    {
        (void)fired;
    }

    /** Mirror weight mutations from the network's log. */
    virtual void refreshWeights() = 0;

    /** Heap bytes owned by this provider (tables, blobs, decode
     *  arrays). */
    virtual size_t connectivityBytes() const = 0;

    /** The wrapped RoutingTable, when this provider is the
     *  materialized one (the router's fast-path handle). */
    virtual const RoutingTable *materializedTable() const
    {
        return nullptr;
    }

    /** Zero the decode counter (bit-exact session reset). */
    void reset() { rowsDecoded_ = 0; }

    /** Rows decoded for delivery (procedural; 0 otherwise). */
    uint64_t rowCacheMisses() const { return rowsDecoded_; }

  protected:
    ConnectivityProvider(ConnectivityKind kind,
                         ConnectivityGeometry geo)
        : kind_(kind), geo_(std::move(geo))
    {
    }

    ConnectivityKind kind_;
    ConnectivityGeometry geo_;
    const uint64_t *maskData_ = nullptr; ///< set by the subclass
    bool masksExact_ = false;
    uint64_t rowsDecoded_ = 0; ///< written by prepareStep() only
};

/**
 * Construct a provider over a finalized network.
 *
 * Materialized requires a materialized network (it builds the CSR
 * routing table from stored rows); procedural requires a network
 * built with buildFromSpec(procedural = true); compressed accepts
 * either storage mode (it encodes from regenerated or stored rows).
 */
std::unique_ptr<ConnectivityProvider>
makeConnectivityProvider(ConnectivityKind kind, const Network &network,
                         size_t shardCount,
                         telemetry::Registry *metrics);

} // namespace flexon

#endif // FLEXON_SNN_CONNECTIVITY_HH
