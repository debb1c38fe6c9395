/**
 * @file
 * Precompiled spike-routing tables and the delay-ring delivery
 * engine.
 *
 * Spike delivery is a memory-bandwidth problem (Lindqvist & Podobas,
 * arXiv:2405.02019): the per-event work is one multiply-free
 * accumulate, so throughput is set by how compactly the synapse data
 * streams. The seed path gathered 12-byte `Synapse` records through
 * a 64-bit permutation per event; RoutingTable instead compiles the
 * synapse table once, at construction, into delivery order:
 *
 *   per target shard, per delay bucket, a contiguous stream of
 *   8-byte records {cell = target * maxSynapseTypes + type, weight}
 *   with a CSR index over source rows.
 *
 * The hot loop per fired source and delay bucket is then a pure
 * sequential stream of `base[cell] += weight` — no struct gather, no
 * permutation indirection, and the ring-slot base pointer hoisted
 * per bucket.
 *
 * Sparse activity (the PR 6 fast path): realistic cortical workloads
 * fire at a few Hz, so on most steps most (shard, bucket) pairs carry
 * nothing. The table therefore also compiles a per-(source, shard)
 * *activity bitmap* — bit b set when source row src has records in
 * (shard, bucket b). Delivery ORs the fired sources' masks per shard,
 * dispatches only the shards with route or clear work (no pool
 * barrier when at most one shard has work), and walks only the set
 * mask bits instead of scanning every bucket's CSR row. Networks with
 * more than 64 distinct delay values fall back to the bucket-scan
 * loop (masks would not fit a word); shard skipping still applies via
 * the whole-shard emptiness check.
 *
 * Order preservation (the bit-identity argument): a ring cell is one
 * (slot, target, type) location, and within a step exactly one delay
 * bucket writes a given slot. Within that bucket records are laid
 * out source-ascending with original row order preserved, and the
 * fired list is scanned in ascending order — so every cell receives
 * its floating-point additions in exactly the serial-scan order, for
 * any shard count. This holds for the mask-directed loop too: it is
 * bucket-major like the scan loop, with the same ascending fired
 * scan per bucket — it merely skips buckets whose mask bit is clear,
 * which carry no writes at all.
 * Results are therefore bit-identical to the serial path at any
 * thread count and with the sparse path on or off
 * (tests/test_routing.cc enforces this against a naive delivery
 * oracle).
 *
 * Weights are copied into the records, so in-place plasticity
 * updates (Network::synapseAt) are re-mirrored from the network's
 * weight-mutation log by refreshWeights() — O(mutations), or one
 * full O(synapses) pass when more than Network::weightLogCapacity
 * mutations behind.
 *
 * SpikeRouter owns the delay ring on top of the table and makes ring
 * maintenance activity-proportional: each (slot, shard) tracks what
 * was written into it (stimulus cells, cells delivered from decoded
 * rows, and record spans of routed table rows), and the consumed
 * slot is cleared by undoing only those writes when activity is
 * sparse, falling back to a dense std::fill above a per-shard
 * density threshold — quiet steps and quiet shards of large networks
 * no longer pay O(numNeurons * maxSynapseTypes) per step.
 */

#ifndef FLEXON_SNN_ROUTING_HH
#define FLEXON_SNN_ROUTING_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/telemetry.hh"
#include "common/touch_list.hh"
#include "snn/connectivity.hh"
#include "snn/network.hh"

namespace flexon {

/** Sparse ring contents: per delay offset, ascending (cell, value). */
using RingTransfer =
    std::vector<std::vector<std::pair<uint32_t, double>>>;

/**
 * The precompiled delivery layout: per (target shard, delay bucket),
 * a contiguous run of DeliveryRecords with a CSR index over source
 * rows. Shards partition the target axis into contiguous ranges of
 * roughly equal incoming-synapse load, so concurrent lanes never
 * write the same cell.
 */
class RoutingTable
{
  public:
    /**
     * @param network finalized topology (kept by reference; must
     *        outlive the table)
     * @param shardCount requested target shards (>= 1; clamped to
     *        the neuron count)
     * @param metrics optional registry for refresh-path counters
     *        (must outlive the table; nullptr = no telemetry)
     */
    RoutingTable(const Network &network, size_t shardCount,
                 telemetry::Registry *metrics = nullptr);

    /** The shard/bucket layout (buildConnectivityGeometry). */
    const ConnectivityGeometry &geometry() const { return geo_; }

    size_t shardCount() const { return geo_.shardCount; }

    /** Delay values that actually occur, ascending. */
    size_t bucketCount() const { return geo_.bucketDelay.size(); }
    uint8_t bucketDelay(size_t bucket) const
    {
        return geo_.bucketDelay[bucket];
    }

    /** First target neuron of each shard; size shardCount() + 1. */
    const std::vector<uint32_t> &shardTargetBegin() const
    {
        return geo_.shardTargetBegin;
    }

    /** Shard owning ring cell (target * maxSynapseTypes + type). */
    size_t
    shardOfCell(uint32_t cell) const
    {
        return geo_.shardOf[cell / maxSynapseTypes];
    }

    /**
     * CSR row index of (shard, bucket): row src's records are
     * records()[ptr[src] .. ptr[src + 1]). Offsets are global into
     * records(), so one pointer serves the whole table.
     */
    const uint32_t *
    rowPtr(size_t shard, size_t bucket) const
    {
        return rowPtr_.data() +
               (shard * geo_.bucketDelay.size() + bucket) *
                   rowStride_;
    }

    const DeliveryRecord *records() const { return records_.data(); }

    /** Delivery records of source row src in (shard, bucket). */
    std::span<const DeliveryRecord>
    row(size_t shard, size_t bucket, uint32_t src) const
    {
        const uint32_t *ptr = rowPtr(shard, bucket);
        return {records_.data() + ptr[src], ptr[src + 1] - ptr[src]};
    }

    /** True when (shard, bucket) holds no records at all. */
    bool
    bucketEmpty(size_t shard, size_t bucket) const
    {
        const uint32_t *ptr = rowPtr(shard, bucket);
        return ptr[0] == ptr[rowStride_ - 1];
    }

    /**
     * True when activity bitmaps are available: bucketCount() <= 64,
     * so a shard's bucket occupancy per source fits one word. When
     * false, rowMask()/rowMaskRow() must not be consulted and
     * delivery falls back to the bucket-scan loop.
     */
    bool rowMasksExact() const { return masksExact_; }

    /** Bit b set iff row (shard, bucket b, src) has records. */
    uint64_t
    rowMask(uint32_t src, size_t shard) const
    {
        return rowMask_[src * geo_.shardCount + shard];
    }

    /** Source row src's masks for all shards (shardCount() words). */
    const uint64_t *
    rowMaskRow(uint32_t src) const
    {
        return rowMask_.data() + src * geo_.shardCount;
    }

    // ---- Source-major mirror ------------------------------------
    //
    // The bucket-major CSR above streams best when many sources fire
    // at once (each (shard, bucket) run is contiguous across
    // sources), but on a sparse step it costs ~2 scattered row
    // probes per populated bucket to stream a handful of records.
    // The table therefore also keeps a source-major mirror: per
    // (source, shard), that source's records contiguous in
    // ascending-bucket order, prefixed by packed run headers
    // (bucket << 24 | record count). A sparse step streams a fired
    // row with one header line and one record stream per shard —
    // no per-bucket probing. Addition order per ring cell is
    // unchanged (ascending source, original row order within a
    // source; a cell belongs to exactly one bucket per step), so
    // either walk is bit-identical.

    /** Packed run headers of (src, shard), ascending bucket. */
    std::span<const uint32_t>
    sourceRuns(uint32_t src, size_t shard) const
    {
        const size_t at = src * geo_.shardCount + shard;
        return {srcRuns_.data() + srcRunPtr_[at],
                srcRunPtr_[at + 1] - srcRunPtr_[at]};
    }

    /** First source-major record of (src, shard). */
    const DeliveryRecord *
    sourceRecords(uint32_t src, size_t shard) const
    {
        return srcRecords_.data() +
               srcRecPtr_[src * geo_.shardCount + shard];
    }

    /** Offset of sourceRecords(src, shard) into the mirror array. */
    uint32_t
    sourceRecordOffset(uint32_t src, size_t shard) const
    {
        return srcRecPtr_[src * geo_.shardCount + shard];
    }

    /** Bucket-major record at a global records() offset. */
    const DeliveryRecord *
    recordAt(uint32_t offset) const
    {
        return records_.data() + offset;
    }

    /** Source-major record at a global mirror offset. */
    const DeliveryRecord *
    sourceRecordAt(uint32_t offset) const
    {
        return srcRecords_.data() + offset;
    }

    static constexpr uint32_t runBucket(uint32_t header)
    {
        return header >> 24;
    }
    static constexpr uint32_t runLength(uint32_t header)
    {
        return header & 0xFFFFFFu;
    }

    /**
     * Re-mirror weights mutated through Network::synapseAt() since
     * the last call (or construction). Must not run concurrently
     * with mutations; call it between steps.
     */
    void refreshWeights();

    /** Bytes held by the table (records + CSR + masks + refresh map). */
    size_t memoryBytes() const;

  private:
    const Network &network_;
    ConnectivityGeometry geo_;
    size_t rowStride_; ///< numNeurons + 1
    std::vector<DeliveryRecord> records_;
    std::vector<uint32_t> rowPtr_;
    /** Per (source, shard) bucket-occupancy bitmaps (see above). */
    std::vector<uint64_t> rowMask_;
    bool masksExact_ = false;
    /** Source-major mirror (see above). */
    std::vector<DeliveryRecord> srcRecords_;
    std::vector<uint32_t> srcRuns_;
    /** CSR (src * shardCount + shard) -> srcRuns_. */
    std::vector<uint32_t> srcRunPtr_;
    /** CSR (src * shardCount + shard) -> srcRecords_. */
    std::vector<uint32_t> srcRecPtr_;
    /** Bucket-major record position -> source-major position. */
    std::vector<uint32_t> srcPosOf_;
    /** Global synapse index -> record position (weight refresh). */
    std::vector<uint32_t> recordOf_;
    /** Network::weightMutations() already mirrored. */
    uint64_t weightsSeen_ = 0;
    /** Refresh-path telemetry (null without a registry). */
    telemetry::Counter *tailRefreshCounter_ = nullptr;
    telemetry::Counter *fullRefreshCounter_ = nullptr;
};

/**
 * The delay ring plus its delivery engine: ring slots are cleared
 * activity-proportionally and fired spikes are streamed through the
 * RoutingTable, in parallel across target shards, with bit-identical
 * results at any shard count.
 */
class SpikeRouter
{
  public:
    /**
     * @param metrics optional registry (must outlive the router;
     *        nullptr = no telemetry). Registers refresh counters,
     *        the sparse-path skip counters, a ring-occupancy
     *        histogram and a touched-cells counter; the deep
     *        per-step samples only fire while
     *        telemetry::detailEnabled().
     * @param kind connectivity representation spikes are delivered
     *        from. Materialized keeps the direct RoutingTable fast
     *        paths; compressed and procedural decode rows through
     *        the provider's per-shard scratch machinery (identical
     *        results, see the bit-identity notes above).
     */
    SpikeRouter(const Network &network, size_t shardCount,
                telemetry::Registry *metrics = nullptr,
                ConnectivityKind kind = ConnectivityKind::Materialized);

    /** The materialized routing table; fatal()s for other kinds. */
    const RoutingTable &table() const;

    /** The connectivity source spikes are delivered from. */
    const ConnectivityProvider &provider() const { return *conn_; }
    ConnectivityKind kind() const { return conn_->kind(); }

    /** Provider-owned connectivity bytes (tables/blobs/caches). */
    size_t connectivityBytes() const
    {
        return conn_->connectivityBytes();
    }

    /** Rows the procedural provider decoded for delivery. */
    uint64_t rowCacheMisses() const
    {
        return conn_->rowCacheMisses();
    }

    size_t ringDepth() const { return ringDepth_; }
    size_t slotSize() const { return slotSize_; }

    /** The weight buffer consumed by step t's neuron phase. */
    std::span<double> slot(uint64_t t);
    std::span<const double> slot(uint64_t t) const;

    /** The raw ring (ringDepth * slotSize doubles, slot-major). */
    const std::vector<double> &ringBuffer() const { return ring_; }

    /**
     * Toggle the sparse fast path (default on). Off restores the PR 5
     * dispatch: every shard runs every active step and delivery scans
     * every bucket. Ring contents are bit-identical either way; only
     * the schedule and the skip counters differ.
     */
    void setSparseDelivery(bool on) { sparseDelivery_ = on; }
    bool sparseDelivery() const { return sparseDelivery_; }

    /**
     * Record a stimulus write into step t's slot so the sparse clear
     * can undo it (cell = target * maxSynapseTypes + type). Call for
     * every cell the stimulus phase accumulates into.
     */
    void
    noteStimulus(uint64_t t, uint32_t cell)
    {
        cellTouch(t % ringDepth_, conn_->shardOfCell(cell))
            .add(cell, 1);
    }

    /**
     * One synapse-calculation step: clear the consumed slot of step
     * t (sparse or dense, decided per shard), then deliver every
     * fired source's outgoing synapses into the slots of t + delay.
     * `fired` must be ascending. Only shards with route or clear
     * work are dispatched; steps whose work fits one lane — quiet
     * steps included — run inline without a pool barrier.
     */
    void routeStep(uint64_t t, std::span<const uint32_t> fired);

    /** Re-mirror plasticity weight updates (cheap when unchanged). */
    void refreshWeights() { conn_->refreshWeights(); }

    /**
     * Pending-write load across the whole delay ring: the summed
     * undo cost of every routed and cell touch list. Duplicate
     * writes to one cell count each time, so the value can exceed
     * the cell count of the ring — callers comparing it against
     * ringDepth() * slotSize() should clamp. Health sweeps use it as
     * the delay-ring occupancy watermark signal.
     */
    uint64_t
    pendingWrites() const
    {
        uint64_t total = 0;
        for (const TouchList &list : touched_)
            total += list.cost();
        for (const TouchList &list : cellTouched_)
            total += list.cost();
        return total;
    }

    // Counters since construction / reset().
    uint64_t events() const { return events_; }
    uint64_t denseClears() const { return denseClears_; }
    uint64_t sparseClears() const { return sparseClears_; }
    /** Cell zeroings performed by sparse clears (incl. duplicates). */
    uint64_t cellsCleared() const { return cellsCleared_; }
    /** Shards skipped entirely by the sparse path, summed. */
    uint64_t shardsSkipped() const { return shardsSkipped_; }
    /** (shard, bucket) pairs streamed by delivery, summed. */
    uint64_t bucketsVisited() const { return bucketsVisited_; }

    /** Zero the ring, the touch tracking and the counters. */
    void reset();

    /**
     * Engine hand-off support: export the live ring as sparse
     * (cell, value) lists per delay offset from step t, or seed a
     * freshly reset ring from such lists (cells are touch-tracked so
     * later sparse clears stay correct). Values move verbatim —
     * the accumulated doubles, not the float weights — so a switch
     * between delivery engines stays bit-exact.
     */
    void exportRing(uint64_t t, RingTransfer &out) const;
    void importRing(uint64_t t, const RingTransfer &slots);
    /** Restore the cumulative event count after an engine hand-off. */
    void seedEvents(uint64_t events) { events_ = events; }

    /**
     * Checkpoint the router's dynamic state: the delay ring (runs of
     * exact +0.0 run-length encoded as `zN` tokens — quiet slots
     * dominate the ring), every per-(slot, shard) routed and cell
     * touch list, and the event/clear/skip counters. The
     * touch lists are part of correctness, not just telemetry: a
     * restored ring without its pending-write tracking would let a
     * sparse clear miss stale cells. Saturated lists round trip as
     * saturated, so the dense/sparse decision sequence — and with it
     * every counter — continues deterministically. loadState
     * fatal()s on a geometry mismatch.
     */
    void saveState(std::ostream &os) const;
    void loadState(std::istream &is);

  private:
    /**
     * Clear the consumed slot for lane `shard`: its contiguous cell
     * range densely, or only the tracked writes when sparse.
     */
    void laneClear(size_t slotIdx, size_t shard, bool dense);

    /** Bucket-scan delivery (mask fallback and PR 5 mode). */
    void laneRoute(uint64_t t, size_t shard,
                   std::span<const uint32_t> fired);

    /** Mask-directed delivery: walk only the set bucket bits. */
    void laneRouteMasked(uint64_t t, size_t shard,
                         std::span<const uint32_t> fired);

    /**
     * Source-major delivery for sparse steps: stream each fired
     * row's contiguous (header, records) runs, no per-bucket
     * probing.
     */
    void laneRouteSourceMajor(uint64_t t, size_t shard,
                              std::span<const uint32_t> fired);

    /**
     * Provider-decoded delivery (compressed / procedural): stream
     * each fired row via ConnectivityProvider::rowSpan through the
     * lane's scratch buffer. Runs arrive in the same source-major
     * shape (ascending-bucket runs per fired source, ascending
     * source scan), so additions per ring cell keep the identical
     * order as the materialized walks. Every written cell is
     * recorded in the slot's cell list, so the clear never decodes
     * the row again.
     */
    void laneRouteRows(uint64_t t, size_t shard,
                       std::span<const uint32_t> fired);

    void legacyRouteStep(uint64_t t, size_t slotIdx,
                         std::span<const uint32_t> fired);

    TouchList &touch(size_t slotIdx, size_t shard)
    {
        return touched_[slotIdx * shards_ + shard];
    }
    const TouchList &touch(size_t slotIdx, size_t shard) const
    {
        return touched_[slotIdx * shards_ + shard];
    }

    TouchList &cellTouch(size_t slotIdx, size_t shard)
    {
        return cellTouched_[slotIdx * shards_ + shard];
    }
    const TouchList &cellTouch(size_t slotIdx, size_t shard) const
    {
        return cellTouched_[slotIdx * shards_ + shard];
    }

    std::unique_ptr<ConnectivityProvider> conn_;
    /** Fast-path handle: non-null iff conn_ is materialized. The
     *  PR 3/PR 6 delivery loops run unchanged through it. */
    const RoutingTable *mat_ = nullptr;
    size_t shards_;
    /** One decode scratch per shard (lanes never share). */
    mutable std::vector<RowScratch> scratch_;
    size_t ringDepth_;
    size_t slotSize_;
    std::vector<double> ring_;
    /** Ring-slot base pointer per delay, recomputed each step. */
    std::vector<double *> slotBase_;
    /**
     * touched_ row (slot of t + delay, shard 0) per delay,
     * recomputed each step beside slotBase_ — the sparse lanes index
     * [delay][shard] instead of re-dividing by the ring depth per
     * visited bucket.
     */
    std::vector<TouchList *> touchBase_;
    /** cellTouched_ row per delay, alongside touchBase_. */
    std::vector<TouchList *> cellTouchBase_;
    /**
     * Per (slot, shard): materialized-table writes pending in that
     * slot, as record-range keys from the sparse loops or packed
     * (bucket << 32 | source) keys from the bucket scan, each with
     * row-length cost (see routing.cc).
     */
    std::vector<TouchList> touched_;
    /**
     * Per (slot, shard): single cells pending in that slot, one unit
     * of cost each — stimulus writes, imported ring cells and every
     * cell delivered from a decoding provider's rows.
     */
    std::vector<TouchList> cellTouched_;
    /** Per-shard event tallies (reduced after the barrier). */
    std::vector<uint64_t> laneEvents_;
    /** Per-shard bucket-visit tallies (reduced after the barrier). */
    std::vector<uint64_t> laneBuckets_;
    /** Per-shard dense-clear decisions for the consumed slot. */
    std::vector<uint8_t> laneDense_;
    /** Per-shard OR of the fired sources' activity masks. */
    std::vector<uint64_t> routeMask_;
    /** Shards with route or clear work this step, compacted. */
    std::vector<uint32_t> activeShards_;
    /** Per-shard sparse-clear cost cap: dense fill at or above. */
    std::vector<uint64_t> shardClearBudget_;

    bool sparseDelivery_ = true;

    uint64_t events_ = 0;
    uint64_t denseClears_ = 0;
    uint64_t sparseClears_ = 0;
    uint64_t cellsCleared_ = 0;
    uint64_t shardsSkipped_ = 0;
    uint64_t bucketsVisited_ = 0;

    /** Sparse-path observability (always on when a registry exists). */
    telemetry::Counter *shardsSkippedCounter_ = nullptr;
    telemetry::Counter *bucketsVisitedCounter_ = nullptr;
    /** Deep telemetry, sampled per step while detailEnabled(). */
    telemetry::Counter *touchedCellsCounter_ = nullptr;
    telemetry::HistogramMetric *occupancyHist_ = nullptr;
};

} // namespace flexon

#endif // FLEXON_SNN_ROUTING_HH
