#include "snn/routing.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <string>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace flexon {

namespace {

/**
 * Touch-key encodings for the delivery ring's undo lists. The PR 5
 * loops write `bucket << 32 | src` and the clear re-derives the
 * record span with a row probe; the sparse loops instead write the
 * span itself — kRangeKey | [kSourceMajorKey] | len << 32 | offset —
 * so the clear streams records with no probing. Bucket indices are
 * < 2^24, so bit 63 cleanly separates the two forms and mixed lists
 * (mode switches, restored checkpoints) stay interpretable.
 */
constexpr uint64_t kRangeKey = uint64_t{1} << 63;
/** Range key's offset addresses the source-major mirror. */
constexpr uint64_t kSourceMajorKey = uint64_t{1} << 62;

constexpr uint64_t
rangeKey(uint32_t offset, uint32_t len, bool sourceMajor)
{
    return kRangeKey | (sourceMajor ? kSourceMajorKey : 0) |
           (static_cast<uint64_t>(len) << 32) | offset;
}

} // namespace

RoutingTable::RoutingTable(const Network &network, size_t shardCount,
                           telemetry::Registry *metrics)
    : network_(network)
{
    if (metrics != nullptr) {
        tailRefreshCounter_ = &metrics->counter(
            "route.refresh_tail",
            "weight refreshes replayed from the mutation-log tail");
        fullRefreshCounter_ = &metrics->counter(
            "route.refresh_full",
            "weight refreshes via a full-table mirror");
    }
    if (!network.finalized())
        fatal("network must be finalized before routing-table build");
    const size_t n = network.numNeurons();
    const uint64_t total = network.numSynapses();
    if (total >= std::numeric_limits<uint32_t>::max()) {
        fatal("routing table supports < 2^32 synapses (network has "
              "%llu)",
              static_cast<unsigned long long>(total));
    }
    rowStride_ = n + 1;

    // Shard boundaries, delay buckets and the shard lookup come from
    // the shared geometry builder, so every ConnectivityProvider —
    // this table included — agrees on the layout structurally.
    geo_ = buildConnectivityGeometry(network, shardCount);
    const size_t shardTotal = geo_.shardCount;
    const std::vector<uint32_t> &shardOf = geo_.shardOf;
    const std::array<uint8_t, 256> &bucketOf = geo_.bucketOf;
    const size_t buckets = geo_.bucketDelay.size();
    const size_t blocks = shardTotal * buckets;

    // Activity bitmaps: which (shard, bucket) pairs each source row
    // can deliver into. One word per (source, shard) as long as the
    // bucket count fits; beyond 64 distinct delays the masks are
    // dropped and delivery scans buckets instead.
    masksExact_ = buckets <= 64;
    if (masksExact_)
        rowMask_.assign(n * shardTotal, 0);

    // Counting sort into (shard, bucket, source-row) runs, keeping
    // row order within each run (the order-preservation invariant).
    rowPtr_.assign(blocks * rowStride_, 0);
    for (uint32_t src = 0; src < n; ++src) {
        for (const Synapse &syn : network.outgoing(src)) {
            const size_t s = shardOf[syn.target];
            const size_t b = bucketOf[syn.delay];
            ++rowPtr_[(s * buckets + b) * rowStride_ + src + 1];
            if (masksExact_)
                rowMask_[src * shardTotal + s] |= uint64_t{1} << b;
        }
    }
    uint32_t running = 0;
    for (size_t block = 0; block < blocks; ++block) {
        uint32_t *ptr = rowPtr_.data() + block * rowStride_;
        ptr[0] = running;
        for (size_t r = 1; r <= n; ++r) {
            running += ptr[r];
            ptr[r] = running;
        }
    }

    records_.resize(total);
    recordOf_.resize(total);
    std::vector<uint32_t> fill(rowPtr_.size());
    for (size_t block = 0; block < blocks; ++block)
        for (size_t r = 0; r < n; ++r)
            fill[block * rowStride_ + r] =
                rowPtr_[block * rowStride_ + r];
    for (uint32_t src = 0; src < n; ++src) {
        const uint64_t base = network.rowStart(src);
        const auto row = network.outgoing(src);
        for (size_t k = 0; k < row.size(); ++k) {
            const Synapse &syn = row[k];
            const size_t block =
                shardOf[syn.target] * buckets + bucketOf[syn.delay];
            const uint32_t pos = fill[block * rowStride_ + src]++;
            records_[pos] = {static_cast<uint32_t>(
                                 syn.target * maxSynapseTypes +
                                 syn.type),
                             syn.weight};
            recordOf_[base + k] = pos;
        }
    }

    // Source-major mirror: copy each (src, shard)'s rows in
    // ascending-bucket order out of the bucket-major table, packing
    // one run header per populated bucket. srcPosOf_ keeps weight
    // refreshes O(1) per mutation for both layouts.
    srcRecords_.resize(total);
    srcPosOf_.resize(total);
    srcRunPtr_.assign(n * shardTotal + 1, 0);
    srcRecPtr_.assign(n * shardTotal + 1, 0);
    uint32_t runCount = 0, recCount = 0;
    for (uint32_t src = 0; src < n; ++src) {
        for (size_t s = 0; s < shardTotal; ++s) {
            const size_t at = src * shardTotal + s;
            srcRunPtr_[at] = runCount;
            srcRecPtr_[at] = recCount;
            for (size_t b = 0; b < buckets; ++b) {
                const uint32_t *ptr =
                    rowPtr(s, b); // block-local CSR, global offsets
                const uint32_t lo = ptr[src], hi = ptr[src + 1];
                if (lo == hi)
                    continue;
                flexon_assert(hi - lo < (uint32_t{1} << 24));
                ++runCount;
                for (uint32_t p = lo; p < hi; ++p) {
                    srcPosOf_[p] = recCount;
                    srcRecords_[recCount++] = records_[p];
                }
            }
        }
    }
    srcRunPtr_[n * shardTotal] = runCount;
    srcRecPtr_[n * shardTotal] = recCount;
    srcRuns_.resize(runCount);
    runCount = 0;
    for (uint32_t src = 0; src < n; ++src) {
        for (size_t s = 0; s < shardTotal; ++s) {
            for (size_t b = 0; b < buckets; ++b) {
                const uint32_t *ptr = rowPtr(s, b);
                if (ptr[src] == ptr[src + 1])
                    continue;
                srcRuns_[runCount++] =
                    (static_cast<uint32_t>(b) << 24) |
                    (ptr[src + 1] - ptr[src]);
            }
        }
    }

    weightsSeen_ = network.weightMutations();
}

void
RoutingTable::refreshWeights()
{
    const uint64_t total = network_.weightMutations();
    if (total == weightsSeen_)
        return;
    if (total - weightsSeen_ <= Network::weightLogCapacity) {
        // Replay just the logged mutations (idempotent, duplicates
        // and read-only accesses included).
        for (uint64_t m = weightsSeen_; m < total; ++m) {
            const uint64_t idx = network_.weightLogEntry(m);
            const uint32_t pos = recordOf_[idx];
            const float w = network_.synapseAt(idx).weight;
            records_[pos].weight = w;
            srcRecords_[srcPosOf_[pos]].weight = w;
        }
        if (tailRefreshCounter_ != nullptr)
            tailRefreshCounter_->add(1);
    } else {
        // Too far behind the log ring: mirror every weight.
        const uint64_t count = network_.numSynapses();
        for (uint64_t idx = 0; idx < count; ++idx) {
            const uint32_t pos = recordOf_[idx];
            const float w = network_.synapseAt(idx).weight;
            records_[pos].weight = w;
            srcRecords_[srcPosOf_[pos]].weight = w;
        }
        if (fullRefreshCounter_ != nullptr)
            fullRefreshCounter_->add(1);
    }
    weightsSeen_ = total;
}

size_t
RoutingTable::memoryBytes() const
{
    return records_.capacity() * sizeof(DeliveryRecord) +
           srcRecords_.capacity() * sizeof(DeliveryRecord) +
           rowPtr_.capacity() * sizeof(uint32_t) +
           recordOf_.capacity() * sizeof(uint32_t) +
           srcRuns_.capacity() * sizeof(uint32_t) +
           srcRunPtr_.capacity() * sizeof(uint32_t) +
           srcRecPtr_.capacity() * sizeof(uint32_t) +
           srcPosOf_.capacity() * sizeof(uint32_t) +
           rowMask_.capacity() * sizeof(uint64_t) +
           geo_.shardTargetBegin.capacity() * sizeof(uint32_t) +
           geo_.shardOf.capacity() * sizeof(uint32_t) +
           geo_.bucketDelay.capacity();
}

const RoutingTable &
SpikeRouter::table() const
{
    if (mat_ == nullptr)
        fatal("SpikeRouter::table(): the %s connectivity provider "
              "has no materialized routing table",
              connectivityKindName(conn_->kind()));
    return *mat_;
}

SpikeRouter::SpikeRouter(const Network &network, size_t shardCount,
                         telemetry::Registry *metrics,
                         ConnectivityKind kind)
    : conn_(makeConnectivityProvider(kind, network, shardCount,
                                     metrics)),
      mat_(conn_->materializedTable()),
      shards_(conn_->shardCount()),
      ringDepth_(static_cast<size_t>(network.maxDelay()) + 1),
      slotSize_(network.numNeurons() * maxSynapseTypes)
{
    if (metrics != nullptr) {
        shardsSkippedCounter_ = &metrics->counter(
            "snn.router.shards_skipped",
            "target shards skipped entirely by sparse delivery");
        bucketsVisitedCounter_ = &metrics->counter(
            "snn.router.buckets_visited",
            "(shard, delay-bucket) pairs streamed by delivery");
    }
    if (metrics != nullptr && slotSize_ > 0) {
        touchedCellsCounter_ = &metrics->counter(
            "route.touched_cells",
            "ring cells tracked as written, summed over steps");
        occupancyHist_ = &metrics->histogram(
            "route.ring_occupancy", 0.0, 1.0, 20,
            "per-step fraction of the consumed slot's cells "
            "tracked as written (1.0 = saturated/dense)");
    }
    ring_.assign(ringDepth_ * slotSize_, 0.0);
    slotBase_.assign(ringDepth_, nullptr);
    touchBase_.assign(ringDepth_, nullptr);
    cellTouchBase_.assign(ringDepth_, nullptr);
    const size_t shards = shards_;
    scratch_.resize(mat_ == nullptr ? shards : 0);
    laneEvents_.assign(shards, 0);
    laneBuckets_.assign(shards, 0);
    laneDense_.assign(shards, 0);
    routeMask_.assign(shards, 0);
    activeShards_.reserve(shards);

    // Crossover between undoing tracked writes and a dense fill: the
    // sequential std::fill streams ~4x faster per cell than scattered
    // zeroing, so clear sparsely only below a quarter of the shard's
    // cell range. The touch lists share the budget, so a saturated
    // list always implies a dense clear for its shard.
    shardClearBudget_.assign(shards, 1);
    const auto &targetBegin = conn_->shardTargetBegin();
    touched_.reserve(ringDepth_ * shards);
    cellTouched_.reserve(ringDepth_ * shards);
    for (size_t s = 0; s < shards; ++s) {
        const uint64_t cells =
            static_cast<uint64_t>(targetBegin[s + 1] -
                                  targetBegin[s]) *
            maxSynapseTypes;
        shardClearBudget_[s] = cells / 4 + 1;
    }
    for (size_t slot = 0; slot < ringDepth_; ++slot)
        for (size_t s = 0; s < shards; ++s)
            touched_.emplace_back(shardClearBudget_[s]);
    for (size_t slot = 0; slot < ringDepth_; ++slot)
        for (size_t s = 0; s < shards; ++s)
            cellTouched_.emplace_back(shardClearBudget_[s]);
}

std::span<double>
SpikeRouter::slot(uint64_t t)
{
    return {ring_.data() + (t % ringDepth_) * slotSize_, slotSize_};
}

std::span<const double>
SpikeRouter::slot(uint64_t t) const
{
    return {ring_.data() + (t % ringDepth_) * slotSize_, slotSize_};
}

void
SpikeRouter::laneClear(size_t slotIdx, size_t shard, bool dense)
{
    double *const base = ring_.data() + slotIdx * slotSize_;

    if (dense) {
        const auto &targetBegin = conn_->shardTargetBegin();
        const uint32_t cellLo = targetBegin[shard] * maxSynapseTypes;
        const uint32_t cellHi =
            targetBegin[shard + 1] * maxSynapseTypes;
        std::fill(base + cellLo, base + cellHi, 0.0);
    } else {
        // Undo the tracked writes of this shard only; lanes never
        // touch another shard's cells. Cell keys (stimulus and
        // decoding-provider deliveries) are zeroed directly. Range
        // keys (bit 63, written by the sparse materialized loops)
        // carry their record span; legacy (bucket << 32 | src) keys
        // re-derive it with a row probe — against the materialized
        // table when one exists, or by re-decoding the source row
        // through the provider (topology is immutable, so the
        // regenerated row covers exactly the cells the original
        // delivery wrote). Decoding providers write no legacy keys;
        // they arrive only from the materialized bucket scan through
        // a restored checkpoint, or from checkpoints of older builds.
        // Mixed lists are fine — each key is self-describing, which
        // keeps checkpoints portable across delivery modes.
        for (const uint64_t cell : cellTouch(slotIdx, shard).keys())
            base[cell] = 0.0;
        for (const uint64_t key : touch(slotIdx, shard).keys()) {
            if ((key & kRangeKey) != 0) {
                if (mat_ == nullptr) {
                    // Record-range keys are offsets into the
                    // materialized arrays; they only appear here
                    // when a materialized-mode checkpoint is
                    // restored into a decoding provider.
                    fatal("checkpoint touch records reference a "
                          "materialized routing table; restore "
                          "with --connectivity=materialized");
                }
                const auto off = static_cast<uint32_t>(key);
                const uint32_t len = (key >> 32) & 0xFFFFFFu;
                const DeliveryRecord *rec =
                    (key & kSourceMajorKey) != 0
                        ? mat_->sourceRecordAt(off)
                        : mat_->recordAt(off);
                for (uint32_t k = 0; k < len; ++k, ++rec)
                    base[rec->cell] = 0.0;
                continue;
            }
            const size_t bucket = key >> 32;
            const auto src = static_cast<uint32_t>(key);
            if (mat_ != nullptr) {
                for (const DeliveryRecord &rec :
                     mat_->row(shard, bucket, src))
                    base[rec.cell] = 0.0;
                continue;
            }
            const RowView row =
                conn_->rowSpan(src, shard, scratch_[shard]);
            const DeliveryRecord *rec = row.records;
            for (const uint32_t header : row.runs) {
                const uint32_t len = runHeaderLength(header);
                if (runHeaderBucket(header) == bucket) {
                    for (uint32_t k = 0; k < len; ++k)
                        base[rec[k].cell] = 0.0;
                    break;
                }
                rec += len;
            }
        }
    }
    touch(slotIdx, shard).clear();
    cellTouch(slotIdx, shard).clear();
}

void
SpikeRouter::laneRoute(uint64_t t, size_t shard,
                       std::span<const uint32_t> fired)
{
    const DeliveryRecord *const recs = mat_->records();
    uint64_t events = 0;
    uint64_t buckets = 0;
    for (size_t b = 0; b < mat_->bucketCount(); ++b) {
        if (mat_->bucketEmpty(shard, b))
            continue;
        ++buckets;
        const uint32_t *const rows = mat_->rowPtr(shard, b);
        const uint8_t delay = mat_->bucketDelay(b);
        double *const base = slotBase_[delay];
        TouchList &pending =
            touch((t + delay) % ringDepth_, shard);
        if (pending.saturated()) {
            // The slot is already committed to a dense clear, so
            // tracking further writes buys nothing: stream only.
            for (const uint32_t n : fired) {
                uint32_t k = rows[n];
                const uint32_t end = rows[n + 1];
                events += end - k;
                for (; k < end; ++k)
                    base[recs[k].cell] += recs[k].weight;
            }
            continue;
        }
        for (const uint32_t n : fired) {
            uint32_t k = rows[n];
            const uint32_t end = rows[n + 1];
            if (k == end)
                continue;
            pending.add((static_cast<uint64_t>(b) << 32) | n,
                        end - k);
            events += end - k;
            for (; k < end; ++k)
                base[recs[k].cell] += recs[k].weight;
        }
    }
    laneEvents_[shard] = events;
    laneBuckets_[shard] = buckets;
}

void
SpikeRouter::laneRouteMasked(uint64_t t, size_t shard,
                             std::span<const uint32_t> fired)
{
    // Bucket-major like the scan loop — records of one (shard,
    // bucket) stream sequentially across the fired sources — but
    // directed by the OR of the fired rows' activity masks, so only
    // buckets some fired source actually feeds are visited at all.
    // The per-bucket fired scan is ascending as in the scan loop, so
    // every ring cell receives its additions in the identical order:
    // bit-identical results.
    const DeliveryRecord *const recs = mat_->records();
    uint64_t events = 0;
    uint64_t m = routeMask_[shard];
    laneBuckets_[shard] = static_cast<uint64_t>(std::popcount(m));
    while (m != 0) {
        const auto b = static_cast<size_t>(std::countr_zero(m));
        m &= m - 1;
        const uint32_t *const rows = mat_->rowPtr(shard, b);
        const uint8_t delay = mat_->bucketDelay(b);
        double *const base = slotBase_[delay];
        TouchList &pending = touchBase_[delay][shard];
        if (pending.saturated()) {
            for (const uint32_t n : fired) {
                uint32_t k = rows[n];
                const uint32_t end = rows[n + 1];
                events += end - k;
                for (; k < end; ++k)
                    base[recs[k].cell] += recs[k].weight;
            }
            continue;
        }
        for (const uint32_t n : fired) {
            uint32_t k = rows[n];
            const uint32_t end = rows[n + 1];
            if (k == end)
                continue;
            pending.add(rangeKey(k, end - k, false), end - k);
            events += end - k;
            for (; k < end; ++k)
                base[recs[k].cell] += recs[k].weight;
        }
    }
    laneEvents_[shard] = events;
}

void
SpikeRouter::laneRouteSourceMajor(uint64_t t, size_t shard,
                                  std::span<const uint32_t> fired)
{
    // One contiguous (headers, records) stream per fired row — the
    // probe-free walk sparse steps want. Addition order per cell is
    // identical to the bucket-major loops (see the table's
    // source-major notes), so results stay bit-identical.
    uint64_t events = 0;
    uint64_t streams = 0;
    for (const uint32_t n : fired) {
        const std::span<const uint32_t> runs =
            mat_->sourceRuns(n, shard);
        uint32_t off = mat_->sourceRecordOffset(n, shard);
        const DeliveryRecord *rec = mat_->sourceRecordAt(off);
        streams += runs.size();
        for (const uint32_t header : runs) {
            const size_t b = RoutingTable::runBucket(header);
            const uint32_t len = RoutingTable::runLength(header);
            const uint8_t delay = mat_->bucketDelay(b);
            double *const base = slotBase_[delay];
            TouchList &pending = touchBase_[delay][shard];
            if (!pending.saturated())
                pending.add(rangeKey(off, len, true), len);
            events += len;
            off += len;
            for (uint32_t k = 0; k < len; ++k, ++rec)
                base[rec->cell] += rec->weight;
        }
    }
    laneEvents_[shard] = events;
    laneBuckets_[shard] = streams;
}

void
SpikeRouter::laneRouteRows(uint64_t t, size_t shard,
                           std::span<const uint32_t> fired)
{
    // Decoding-provider delivery: stream each fired row through
    // rowSpan() — source-major over (this shard's) bucket runs, the
    // same walk order as laneRouteSourceMajor, so floating-point
    // accumulation per ring cell is bit-identical to the
    // materialized paths. Each written cell goes to the slot's cell
    // list at one unit of undo cost, as a row key would have
    // counted it, so laneClear zeroes it without decoding the row
    // again (record-offset range keys would dangle — decoded
    // records live in per-step arrays or lane scratch, not in a
    // stable table).
    (void)t;
    const bool exact = conn_->rowMasksExact();
    uint64_t events = 0;
    uint64_t streams = 0;
    RowScratch &scratch = scratch_[shard];
    for (const uint32_t n : fired) {
        if (exact && (conn_->rowMask(n, shard) == 0))
            continue;
        const RowView row = conn_->rowSpan(n, shard, scratch);
        const DeliveryRecord *rec = row.records;
        streams += row.runs.size();
        for (const uint32_t header : row.runs) {
            const size_t b = runHeaderBucket(header);
            const uint32_t len = runHeaderLength(header);
            const uint8_t delay = conn_->bucketDelay(b);
            double *const base = slotBase_[delay];
            TouchList &pending = cellTouchBase_[delay][shard];
            events += len;
            if (pending.saturated()) {
                // The slot is already committed to a dense clear.
                for (uint32_t k = 0; k < len; ++k, ++rec)
                    base[rec->cell] += rec->weight;
                continue;
            }
            for (uint32_t k = 0; k < len; ++k, ++rec) {
                base[rec->cell] += rec->weight;
                pending.add(rec->cell, 1);
            }
        }
    }
    laneEvents_[shard] = events;
    laneBuckets_[shard] = streams;
}

void
SpikeRouter::legacyRouteStep(uint64_t t, size_t slotIdx,
                             std::span<const uint32_t> fired)
{
    const size_t shards = shards_;
    if (fired.empty() || conn_->bucketCount() == 0) {
        // Quiet step: clear inline, no pool barrier.
        for (size_t s = 0; s < shards; ++s)
            laneClear(slotIdx, s, laneDense_[s] != 0);
        return;
    }

    for (size_t d = 0; d < ringDepth_; ++d) {
        const size_t slot = (t + d) % ringDepth_;
        slotBase_[d] = ring_.data() + slot * slotSize_;
        touchBase_[d] = touched_.data() + slot * shards;
        cellTouchBase_[d] = cellTouched_.data() + slot * shards;
    }

    // Every shard clears and bucket-scans, every active step pays
    // the pool barrier: the PR 5 schedule, kept as the reference
    // point for the sparse path (and as the mask-overflow fallback
    // dispatch would behave without skipping). Decoding providers
    // have no bucket-major CSR to scan, so their lanes stream the
    // fired rows instead.
    ThreadPool::global().forEachLane(shards, [&](size_t s) {
        laneClear(slotIdx, s, laneDense_[s] != 0);
        if (mat_ != nullptr)
            laneRoute(t, s, fired);
        else
            laneRouteRows(t, s, fired);
    });
    for (size_t s = 0; s < shards; ++s)
        events_ += laneEvents_[s];
}

void
SpikeRouter::routeStep(uint64_t t, std::span<const uint32_t> fired)
{
    const size_t slotIdx = t % ringDepth_;
    const size_t shards = shards_;

    // Serial provider hook before any lane touches rowSpan(): the
    // procedural provider decodes this step's fired rows here, where
    // mutation is single-threaded.
    if (mat_ == nullptr)
        conn_->prepareStep(fired);

    // Dense/sparse decision for the consumed slot, per shard:
    // tracked undo cost vs. the shard's crossover budget. Saturated
    // touch lists have cost >= budget, so an incomplete key list
    // always forces the dense path for its shard.
    uint64_t totalCost = 0;
    bool anyDense = false;
    for (size_t s = 0; s < shards; ++s) {
        const uint64_t cost =
            cellTouch(slotIdx, s).cost() + touch(slotIdx, s).cost();
        totalCost += cost;
        laneDense_[s] = cost >= shardClearBudget_[s] ? 1 : 0;
        anyDense = anyDense || laneDense_[s] != 0;
    }
    if (anyDense) {
        ++denseClears_;
    } else {
        ++sparseClears_;
        cellsCleared_ += totalCost;
    }
    if (occupancyHist_ != nullptr && telemetry::detailEnabled()) {
        touchedCellsCounter_->add(totalCost);
        occupancyHist_->sample(static_cast<double>(totalCost) /
                               static_cast<double>(slotSize_));
    }

    if (!sparseDelivery_) {
        legacyRouteStep(t, slotIdx, fired);
        return;
    }

    // Route-activity masks: OR the fired sources' per-shard bucket
    // bitmaps. Without exact masks (> 64 delay buckets) any firing
    // marks every shard for the bucket-scan fallback.
    const bool exact = conn_->rowMasksExact();
    const bool haveRoute =
        !fired.empty() && conn_->bucketCount() > 0;
    std::fill(routeMask_.begin(), routeMask_.end(), 0);
    if (haveRoute) {
        if (exact) {
            for (const uint32_t n : fired) {
                const uint64_t *const m = conn_->rowMaskRow(n);
                for (size_t s = 0; s < shards; ++s)
                    routeMask_[s] |= m[s];
            }
        } else {
            std::fill(routeMask_.begin(), routeMask_.end(),
                      ~uint64_t{0});
        }
    }

    // Compact the shards that have any work: route deliveries or a
    // non-empty consumed slot. The rest are skipped outright — their
    // slot region is already zero and nothing routes into them.
    activeShards_.clear();
    for (size_t s = 0; s < shards; ++s) {
        const bool clearWork =
            cellTouch(slotIdx, s).cost() + touch(slotIdx, s).cost() >
            0;
        if (clearWork || routeMask_[s] != 0)
            activeShards_.push_back(static_cast<uint32_t>(s));
    }
    const uint64_t skipped = shards - activeShards_.size();
    shardsSkipped_ += skipped;
    if (shardsSkippedCounter_ != nullptr)
        shardsSkippedCounter_->add(skipped);
    if (activeShards_.empty())
        return;

    if (haveRoute) {
        for (size_t d = 0; d < ringDepth_; ++d) {
            const size_t slot = (t + d) % ringDepth_;
            slotBase_[d] = ring_.data() + slot * slotSize_;
            touchBase_[d] = touched_.data() + slot * shards;
            cellTouchBase_[d] = cellTouched_.data() + slot * shards;
        }
    }

    // Per-step layout choice, deterministic in the fired count alone:
    // few sources -> stream each row's contiguous source-major runs
    // (no per-bucket probing, and no mask needed, so it also covers
    // the > 64-bucket case); many sources -> the bucket-major loops,
    // whose per-bucket streams amortize better during bursts.
    const bool sourceMajor =
        haveRoute && fired.size() < conn_->bucketCount();

    auto laneWork = [&](size_t i) {
        const size_t s = activeShards_[i];
        laneEvents_[s] = 0;
        laneBuckets_[s] = 0;
        laneClear(slotIdx, s, laneDense_[s] != 0);
        if (routeMask_[s] != 0) {
            if (mat_ == nullptr)
                laneRouteRows(t, s, fired);
            else if (sourceMajor)
                laneRouteSourceMajor(t, s, fired);
            else if (exact)
                laneRouteMasked(t, s, fired);
            else
                laneRoute(t, s, fired);
        }
    };
    if (!haveRoute) {
        // Clear-only step: stay inline regardless of shard count —
        // the undo work is tiny and never worth a pool barrier.
        for (size_t i = 0; i < activeShards_.size(); ++i)
            laneWork(i);
    } else {
        ThreadPool::global().forEachLane(activeShards_.size(),
                                         laneWork);
    }
    uint64_t visited = 0;
    for (const uint32_t s : activeShards_) {
        events_ += laneEvents_[s];
        visited += laneBuckets_[s];
    }
    bucketsVisited_ += visited;
    if (bucketsVisitedCounter_ != nullptr)
        bucketsVisitedCounter_->add(visited);
}

namespace {

/**
 * Write `values` with runs of exact +0.0 encoded as `zN`. Only the
 * canonical positive zero is eligible: a negative zero (which the
 * delivery path never produces, but the encoder must not assume) is
 * written as a plain value so the bit pattern survives.
 */
void
writeRingRle(std::ostream &os, const std::vector<double> &values)
{
    size_t i = 0;
    while (i < values.size()) {
        const double x = values[i];
        if (x == 0.0 && !std::signbit(x)) {
            size_t run = 1;
            while (i + run < values.size() &&
                   values[i + run] == 0.0 &&
                   !std::signbit(values[i + run]))
                ++run;
            os << " z" << run;
            i += run;
        } else {
            os << ' ' << x;
            ++i;
        }
    }
}

void
readRingRle(std::istream &is, std::vector<double> &values)
{
    size_t i = 0;
    std::string token;
    while (i < values.size() && is >> token) {
        if (token[0] == 'z') {
            const size_t run = std::stoull(token.substr(1));
            if (run == 0 || run > values.size() - i)
                fatal("corrupt ring run length in checkpoint");
            std::fill(values.begin() + i, values.begin() + i + run,
                      0.0);
            i += run;
        } else {
            values[i++] = std::stod(token);
        }
    }
    if (i != values.size())
        fatal("truncated delay-ring data in checkpoint");
}

void
writeTouchList(std::ostream &os, const TouchList &list)
{
    const auto keys = list.keys();
    os << "touch " << list.cost() << ' ' << keys.size();
    for (const uint64_t key : keys)
        os << ' ' << key;
    os << '\n';
}

void
readTouchList(std::istream &is, TouchList &list)
{
    std::string tag;
    uint64_t cost = 0;
    size_t count = 0;
    is >> tag >> cost >> count;
    if (tag != "touch" || !is)
        fatal("malformed touch list in checkpoint");
    std::vector<uint64_t> keys(count);
    for (uint64_t &key : keys)
        is >> key;
    if (!is)
        fatal("truncated touch list in checkpoint");
    list.restore(std::move(keys), cost);
}

} // namespace

void
SpikeRouter::exportRing(uint64_t t, RingTransfer &out) const
{
    out.assign(ringDepth_, {});
    for (size_t d = 0; d < ringDepth_; ++d) {
        const std::span<const double> s = slot(t + d);
        for (size_t c = 0; c < s.size(); ++c) {
            if (s[c] != 0.0)
                out[d].emplace_back(static_cast<uint32_t>(c), s[c]);
        }
    }
}

void
SpikeRouter::importRing(uint64_t t, const RingTransfer &slots)
{
    if (slots.size() > ringDepth_)
        fatal("ring transfer depth %zu exceeds ring depth %zu",
              slots.size(), ringDepth_);
    for (size_t d = 0; d < slots.size(); ++d) {
        double *const base =
            ring_.data() + ((t + d) % ringDepth_) * slotSize_;
        for (const auto &[cell, value] : slots[d]) {
            base[cell] = value;
            noteStimulus(t + d, cell);
        }
    }
}

void
SpikeRouter::saveState(std::ostream &os) const
{
    os << "router " << ringDepth_ << ' ' << slotSize_ << ' '
       << shards_ << '\n';
    os << "ring";
    writeRingRle(os, ring_);
    os << '\n';
    for (const TouchList &list : touched_)
        writeTouchList(os, list);
    for (const TouchList &list : cellTouched_)
        writeTouchList(os, list);
    os << "counters " << events_ << ' ' << denseClears_ << ' '
       << sparseClears_ << ' ' << cellsCleared_ << ' '
       << shardsSkipped_ << ' ' << bucketsVisited_ << '\n';
}

void
SpikeRouter::loadState(std::istream &is)
{
    std::string tag;
    size_t depth = 0, slot = 0, shards = 0;
    is >> tag >> depth >> slot >> shards;
    if (tag != "router" || !is || depth != ringDepth_ ||
        slot != slotSize_ || shards != shards_) {
        fatal("checkpoint router geometry mismatch (expected "
              "%zu x %zu x %zu)",
              ringDepth_, slotSize_, shards_);
    }
    is >> tag;
    if (tag != "ring" || !is)
        fatal("malformed ring section in checkpoint");
    readRingRle(is, ring_);
    for (TouchList &list : touched_)
        readTouchList(is, list);
    for (TouchList &list : cellTouched_)
        readTouchList(is, list);
    is >> tag >> events_ >> denseClears_ >> sparseClears_ >>
        cellsCleared_ >> shardsSkipped_ >> bucketsVisited_;
    if (tag != "counters" || !is)
        fatal("truncated router counters in checkpoint");
}

void
SpikeRouter::reset()
{
    std::fill(ring_.begin(), ring_.end(), 0.0);
    for (TouchList &list : touched_)
        list.clear();
    for (TouchList &list : cellTouched_)
        list.clear();
    events_ = 0;
    denseClears_ = 0;
    sparseClears_ = 0;
    cellsCleared_ = 0;
    shardsSkipped_ = 0;
    bucketsVisited_ = 0;
    conn_->reset();
}

} // namespace flexon
