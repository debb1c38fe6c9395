#include "snn/connectivity.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "snn/routing.hh"

namespace flexon {

const char *
connectivityKindName(ConnectivityKind kind)
{
    switch (kind) {
    case ConnectivityKind::Materialized:
        return "materialized";
    case ConnectivityKind::Compressed:
        return "compressed";
    case ConnectivityKind::Procedural:
        return "procedural";
    }
    return "?";
}

bool
parseConnectivityKind(const std::string &text, ConnectivityKind &out)
{
    if (text == "materialized")
        out = ConnectivityKind::Materialized;
    else if (text == "compressed")
        out = ConnectivityKind::Compressed;
    else if (text == "procedural")
        out = ConnectivityKind::Procedural;
    else
        return false;
    return true;
}

ConnectivityGeometry
buildConnectivityGeometry(const Network &network, size_t shardCount)
{
    if (!network.finalized())
        fatal("network must be finalized before connectivity-"
              "geometry build");
    const size_t n = network.numNeurons();
    if (n > std::numeric_limits<uint32_t>::max() / maxSynapseTypes)
        fatal("connectivity cell offsets overflow at %zu neurons", n);

    ConnectivityGeometry geo;
    size_t sc = shardCount == 0 ? 1 : shardCount;
    sc = std::min(sc, ThreadPool::maxLanes);
    if (sc > n)
        sc = n == 0 ? 1 : n;
    geo.shardCount = sc;

    // Cut the target axis into contiguous ranges of roughly equal
    // incoming-synapse load (the finalize()-time in-degree cache, so
    // no synapse walk — procedural networks have no rows to walk).
    const std::vector<uint32_t> &incoming = network.incomingCounts();
    const uint64_t total = network.numSynapses();
    geo.shardTargetBegin.assign(sc + 1, 0);
    geo.shardTargetBegin[sc] = static_cast<uint32_t>(n);
    uint64_t accum = 0;
    size_t shard = 1;
    for (uint32_t target = 0; target < n && shard < sc; ++target) {
        accum += incoming[target];
        if (accum * sc >= total * shard) {
            geo.shardTargetBegin[shard] = target + 1;
            ++shard;
        }
    }
    for (; shard < sc; ++shard)
        geo.shardTargetBegin[shard] = static_cast<uint32_t>(n);

    geo.shardOf.assign(n, 0);
    for (size_t s = 0; s < sc; ++s)
        for (uint32_t t = geo.shardTargetBegin[s];
             t < geo.shardTargetBegin[s + 1]; ++t)
            geo.shardOf[t] = static_cast<uint32_t>(s);

    // Delay buckets cover only the delay values that occur, so the
    // delivery layout does not scale with the ring depth of sparse
    // delay sets.
    const std::array<bool, 256> &used = network.delaysUsed();
    for (size_t d = 0; d < used.size(); ++d) {
        if (used[d]) {
            geo.bucketOf[d] =
                static_cast<uint8_t>(geo.bucketDelay.size());
            geo.bucketDelay.push_back(static_cast<uint8_t>(d));
        }
    }
    return geo;
}

namespace {

size_t
geometryBytes(const ConnectivityGeometry &geo)
{
    return geo.shardTargetBegin.capacity() * sizeof(uint32_t) +
           geo.shardOf.capacity() * sizeof(uint32_t) +
           geo.bucketDelay.capacity();
}

// ---- LEB128 varints -------------------------------------------------

void
putVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

uint64_t
getVarint(const uint8_t *&p)
{
    uint64_t v = 0;
    unsigned shift = 0;
    while ((*p & 0x80) != 0) {
        v |= static_cast<uint64_t>(*p++ & 0x7F) << shift;
        shift += 7;
    }
    v |= static_cast<uint64_t>(*p++) << shift;
    return v;
}

/**
 * Decode a raw synapse row into (runs, records) for one shard: a
 * counting sort by delay bucket that preserves row order within each
 * bucket — exactly the order the materialized table lays records out
 * in, so per-cell accumulation order matches.
 */
RowView
decodeRowForShard(std::span<const Synapse> row, size_t shard,
                  const ConnectivityGeometry &geo, RowScratch &scratch)
{
    const size_t buckets = geo.bucketDelay.size();
    scratch.counts.assign(buckets, 0);
    for (const Synapse &syn : row)
        if (geo.shardOf[syn.target] == shard)
            ++scratch.counts[geo.bucketOf[syn.delay]];

    scratch.runs.clear();
    uint32_t total = 0;
    for (size_t b = 0; b < buckets; ++b) {
        const uint32_t len = scratch.counts[b];
        if (len == 0)
            continue;
        flexon_assert(len < (uint32_t{1} << 24));
        scratch.runs.push_back(
            packRunHeader(static_cast<uint32_t>(b), len));
        scratch.counts[b] = total; // becomes the run's write cursor
        total += len;
    }
    scratch.records.resize(total);
    for (const Synapse &syn : row) {
        if (geo.shardOf[syn.target] != shard)
            continue;
        const size_t b = geo.bucketOf[syn.delay];
        scratch.records[scratch.counts[b]++] = {
            static_cast<uint32_t>(syn.target * maxSynapseTypes +
                                  syn.type),
            syn.weight};
    }
    return {std::span<const uint32_t>(scratch.runs),
            scratch.records.data()};
}

// ---- Materialized ---------------------------------------------------

class MaterializedProvider final : public ConnectivityProvider
{
  public:
    MaterializedProvider(const Network &network, size_t shardCount,
                         telemetry::Registry *metrics)
        : ConnectivityProvider(
              ConnectivityKind::Materialized,
              buildConnectivityGeometry(network, shardCount)),
          table_(network, shardCount, metrics)
    {
        masksExact_ = table_.rowMasksExact();
        maskData_ = masksExact_ ? table_.rowMaskRow(0) : nullptr;
    }

    RowView
    rowSpan(uint32_t src, size_t shard,
            RowScratch & /*scratch*/) const override
    {
        // Zero-copy view of the table's source-major mirror.
        return {table_.sourceRuns(src, shard),
                table_.sourceRecords(src, shard)};
    }

    void refreshWeights() override { table_.refreshWeights(); }
    size_t connectivityBytes() const override
    {
        return table_.memoryBytes();
    }
    const RoutingTable *materializedTable() const override
    {
        return &table_;
    }

  private:
    RoutingTable table_;
};

// ---- Compressed -----------------------------------------------------

/**
 * Per-(source, shard) blob layout: a sequence of bucket runs, each
 *
 *   bucket   u8
 *   mode     u8    bit 0: uniform synapse type, bit 1: uniform weight
 *   count    varint
 *   [type    u8]                      when uniform type
 *   first    varint                   target id (uniform) / ring cell
 *   deltas   varint x (count - 1)     ascending, >= 0
 *   weights  f32 raw (1 when uniform, else count)
 *
 * Records are stable-sorted by (bucket, cell) before encoding so the
 * deltas are non-negative and small; same-cell records keep their
 * row-relative order, which is all per-cell accumulation order
 * needs, so results stay bit-identical to the materialized walks.
 * Weights stay lossless float32 — STDP and bit-identity rule out
 * quantization; the compression win comes from the id stream.
 */
class CompressedProvider final : public ConnectivityProvider
{
    struct Rec
    {
        uint8_t bucket;
        uint32_t cell;
        float weight;
    };

  public:
    CompressedProvider(const Network &network, size_t shardCount,
                       telemetry::Registry * /*metrics*/)
        : ConnectivityProvider(
              ConnectivityKind::Compressed,
              buildConnectivityGeometry(network, shardCount)),
          net_(network)
    {
        const size_t n = network.numNeurons();
        const size_t sc = geo_.shardCount;
        masksExact_ = geo_.bucketDelay.size() <= 64;
        if (masksExact_)
            mask_.assign(n * sc, 0);
        rowOffset_.assign(n * sc + 1, 0);
        patched_.assign(n, 0);

        std::vector<Synapse> rowScratch;
        std::vector<std::vector<Rec>> byShard(sc);
        for (uint32_t src = 0; src < n; ++src) {
            for (std::vector<Rec> &v : byShard)
                v.clear();
            for (const Synapse &syn : net_.rowFor(src, rowScratch))
                byShard[geo_.shardOf[syn.target]].push_back(
                    {geo_.bucketOf[syn.delay],
                     static_cast<uint32_t>(
                         syn.target * maxSynapseTypes + syn.type),
                     syn.weight});
            for (size_t s = 0; s < sc; ++s) {
                std::vector<Rec> &v = byShard[s];
                std::stable_sort(
                    v.begin(), v.end(),
                    [](const Rec &a, const Rec &b) {
                        return a.bucket != b.bucket
                                   ? a.bucket < b.bucket
                                   : a.cell < b.cell;
                    });
                size_t i = 0;
                while (i < v.size()) {
                    size_t j = i;
                    while (j < v.size() &&
                           v[j].bucket == v[i].bucket)
                        ++j;
                    encodeRun(v, i, j);
                    if (masksExact_)
                        mask_[src * sc + s] |= uint64_t{1}
                                               << v[i].bucket;
                    i = j;
                }
                rowOffset_[src * sc + s + 1] = blob_.size();
            }
        }
        blob_.shrink_to_fit();
        if (masksExact_)
            maskData_ = mask_.data();
        weightsSeen_ = net_.weightMutations();
    }

    RowView
    rowSpan(uint32_t src, size_t shard,
            RowScratch &scratch) const override
    {
        if (allPatched_ || patched_[src] != 0) {
            // Weight-mutated row: decode from the network, which
            // serves current weights in either storage mode.
            return decodeRowForShard(
                net_.rowFor(src, scratch.synapses), shard, geo_,
                scratch);
        }
        const uint8_t *p =
            blob_.data() + rowOffset_[src * geo_.shardCount + shard];
        const uint8_t *const end =
            blob_.data() +
            rowOffset_[src * geo_.shardCount + shard + 1];
        scratch.runs.clear();
        scratch.records.clear();
        while (p < end) {
            const uint8_t bucket = *p++;
            const uint8_t mode = *p++;
            const auto count = static_cast<uint32_t>(getVarint(p));
            scratch.runs.push_back(packRunHeader(bucket, count));
            const size_t base = scratch.records.size();
            scratch.records.resize(base + count);
            DeliveryRecord *const rec = scratch.records.data() + base;
            if ((mode & 1) != 0) {
                const uint8_t type = *p++;
                uint64_t target = getVarint(p);
                rec[0].cell = static_cast<uint32_t>(
                    target * maxSynapseTypes + type);
                for (uint32_t k = 1; k < count; ++k) {
                    target += getVarint(p);
                    rec[k].cell = static_cast<uint32_t>(
                        target * maxSynapseTypes + type);
                }
            } else {
                uint64_t cell = getVarint(p);
                rec[0].cell = static_cast<uint32_t>(cell);
                for (uint32_t k = 1; k < count; ++k) {
                    cell += getVarint(p);
                    rec[k].cell = static_cast<uint32_t>(cell);
                }
            }
            if ((mode & 2) != 0) {
                float w;
                std::memcpy(&w, p, sizeof w);
                p += sizeof w;
                for (uint32_t k = 0; k < count; ++k)
                    rec[k].weight = w;
            } else {
                for (uint32_t k = 0; k < count; ++k) {
                    std::memcpy(&rec[k].weight, p,
                                sizeof rec[k].weight);
                    p += sizeof rec[k].weight;
                }
            }
        }
        return {std::span<const uint32_t>(scratch.runs),
                scratch.records.data()};
    }

    void
    refreshWeights() override
    {
        // Blobs are immutable; rows whose weights mutated are
        // remembered and served from the network instead.
        const uint64_t total = net_.weightMutations();
        if (total == weightsSeen_)
            return;
        if (total - weightsSeen_ <= Network::weightLogCapacity) {
            for (uint64_t m = weightsSeen_; m < total; ++m)
                patched_[net_.sourceOfSynapse(
                    net_.weightLogEntry(m))] = 1;
        } else {
            allPatched_ = true;
        }
        weightsSeen_ = total;
    }

    size_t
    connectivityBytes() const override
    {
        return blob_.capacity() +
               rowOffset_.capacity() * sizeof(uint64_t) +
               patched_.capacity() +
               mask_.capacity() * sizeof(uint64_t) +
               geometryBytes(geo_);
    }

  private:
    void
    encodeRun(const std::vector<Rec> &v, size_t lo, size_t hi)
    {
        const auto count = static_cast<uint32_t>(hi - lo);
        flexon_assert(count < (uint32_t{1} << 24));
        const uint8_t type =
            static_cast<uint8_t>(v[lo].cell % maxSynapseTypes);
        bool uniformType = true;
        bool uniformWeight = true;
        uint32_t weightBits0;
        std::memcpy(&weightBits0, &v[lo].weight, sizeof weightBits0);
        for (size_t k = lo + 1; k < hi; ++k) {
            if (v[k].cell % maxSynapseTypes != type)
                uniformType = false;
            uint32_t bits;
            std::memcpy(&bits, &v[k].weight, sizeof bits);
            if (bits != weightBits0)
                uniformWeight = false;
        }
        blob_.push_back(v[lo].bucket);
        blob_.push_back(static_cast<uint8_t>(
            (uniformType ? 1 : 0) | (uniformWeight ? 2 : 0)));
        putVarint(blob_, count);
        if (uniformType) {
            // Delta over target ids: with one type per run the
            // targets ascend alongside the cells, and target gaps
            // are maxSynapseTypes times smaller than cell gaps —
            // usually a single varint byte at cortical densities.
            blob_.push_back(type);
            uint32_t prev = v[lo].cell / maxSynapseTypes;
            putVarint(blob_, prev);
            for (size_t k = lo + 1; k < hi; ++k) {
                const uint32_t target = v[k].cell / maxSynapseTypes;
                putVarint(blob_, target - prev);
                prev = target;
            }
        } else {
            uint32_t prev = v[lo].cell;
            putVarint(blob_, prev);
            for (size_t k = lo + 1; k < hi; ++k) {
                putVarint(blob_, v[k].cell - prev);
                prev = v[k].cell;
            }
        }
        const size_t weights = uniformWeight ? 1 : count;
        for (size_t k = 0; k < weights; ++k) {
            const size_t at = blob_.size();
            blob_.resize(at + sizeof(float));
            std::memcpy(blob_.data() + at, &v[lo + k].weight,
                        sizeof(float));
        }
    }

    const Network &net_;
    std::vector<uint8_t> blob_;
    /** (src * shardCount + shard) -> blob offset; +1 sentinel. */
    std::vector<uint64_t> rowOffset_;
    /** Per source: 1 when a weight mutation invalidated the blob. */
    std::vector<uint8_t> patched_;
    bool allPatched_ = false;
    std::vector<uint64_t> mask_;
    uint64_t weightsSeen_ = 0;
};

// ---- Procedural -----------------------------------------------------

class ProceduralProvider final : public ConnectivityProvider
{
  public:
    ProceduralProvider(const Network &network, size_t shardCount,
                       telemetry::Registry * /*metrics*/)
        : ConnectivityProvider(
              ConnectivityKind::Procedural,
              buildConnectivityGeometry(network, shardCount)),
          net_(network)
    {
        buildMasks();
    }

    RowView
    rowSpan(uint32_t src, size_t shard,
            RowScratch &scratch) const override
    {
        // Lanes only read the step's decoded rows; prepareStep() is
        // where they change (serial). A row fired on an earlier step
        // — the undo probe of a legacy (bucket, source) touch key —
        // decodes into the caller's scratch instead.
        const auto it =
            std::lower_bound(decoded_.begin(), decoded_.end(), src);
        if (it != decoded_.end() && *it == src) {
            const size_t at =
                static_cast<size_t>(it - decoded_.begin()) *
                    geo_.shardCount +
                shard;
            return {std::span<const uint32_t>(
                        runs_.data() + runPtr_[at],
                        runPtr_[at + 1] - runPtr_[at]),
                    records_.data() + recPtr_[at]};
        }
        return decodeRowForShard(net_.rowFor(src, scratch.synapses),
                                 shard, geo_, scratch);
    }

    void
    prepareStep(std::span<const uint32_t> fired) override
    {
        // Each fired row is generated once, for all shards, into
        // flat arrays that are reused step after step. rowFor()
        // applies the weight overlay, so nothing outlives the step
        // that could go stale.
        decoded_.assign(fired.begin(), fired.end());
        runPtr_.assign(1, 0);
        recPtr_.assign(1, 0);
        runs_.clear();
        records_.clear();
        for (const uint32_t src : fired)
            decodeAllShards(src);
        rowsDecoded_ += fired.size();
    }

    void refreshWeights() override {}

    size_t
    connectivityBytes() const override
    {
        return runs_.capacity() * sizeof(uint32_t) +
               records_.capacity() * sizeof(DeliveryRecord) +
               (runPtr_.capacity() + recPtr_.capacity() +
                decoded_.capacity()) *
                   sizeof(uint32_t) +
               mask_.capacity() * sizeof(uint64_t) +
               geometryBytes(geo_);
    }

  private:
    void
    buildMasks()
    {
        // Conservative per-(source, shard) bucket masks straight
        // from the spec — no generation pass. A set bit only means
        // "may deliver there": the mask-directed dispatch then
        // decodes a row that contributes nothing, which is wasted
        // work but identical arithmetic. Bits are restricted to
        // realized delays so bucketOf stays well-defined.
        const size_t buckets = geo_.bucketDelay.size();
        masksExact_ = buckets <= 64;
        if (!masksExact_)
            return;
        const size_t n = net_.numNeurons();
        const size_t sc = geo_.shardCount;
        mask_.assign(n * sc, 0);
        const std::array<bool, 256> &used = net_.delaysUsed();
        for (const Projection &p :
             net_.connectivitySpec().projections) {
            if (p.srcCount == 0 || p.dstCount == 0)
                continue;
            if (p.rule == Projection::Rule::Bernoulli &&
                p.probability <= 0.0)
                continue;
            if (p.rule == Projection::Rule::FixedFanout &&
                p.fanout == 0)
                continue;
            uint64_t bits = 0;
            for (uint32_t d = p.delayMin; d <= p.delayMax; ++d)
                if (used[d])
                    bits |= uint64_t{1} << geo_.bucketOf[d];
            if (bits == 0)
                continue;
            const uint32_t sLo = geo_.shardOf[p.dstBase];
            const uint32_t sHi =
                geo_.shardOf[p.dstBase + p.dstCount - 1];
            for (uint32_t src = p.srcBase;
                 src < p.srcBase + p.srcCount; ++src)
                for (uint32_t s = sLo; s <= sHi; ++s)
                    mask_[static_cast<size_t>(src) * sc + s] |= bits;
        }
        maskData_ = mask_.data();
    }

    void
    decodeAllShards(uint32_t src)
    {
        // All shards of a row decode together (one generation pass);
        // the counting sort is (shard, bucket)-major, so each
        // shard's slice carries ascending-bucket runs in row order.
        const std::span<const Synapse> row =
            net_.rowFor(src, rowScratch_);
        const size_t sc = geo_.shardCount;
        const size_t buckets = geo_.bucketDelay.size();
        counts_.assign(sc * buckets, 0);
        for (const Synapse &syn : row)
            ++counts_[geo_.shardOf[syn.target] * buckets +
                      geo_.bucketOf[syn.delay]];

        auto rec = static_cast<uint32_t>(records_.size());
        for (size_t s = 0; s < sc; ++s) {
            for (size_t b = 0; b < buckets; ++b) {
                const uint32_t len = counts_[s * buckets + b];
                if (len == 0)
                    continue;
                flexon_assert(len < (uint32_t{1} << 24));
                runs_.push_back(
                    packRunHeader(static_cast<uint32_t>(b), len));
                counts_[s * buckets + b] = rec; // write cursor
                rec += len;
            }
            runPtr_.push_back(static_cast<uint32_t>(runs_.size()));
            recPtr_.push_back(rec);
        }
        records_.resize(rec);
        for (const Synapse &syn : row) {
            const size_t at =
                geo_.shardOf[syn.target] * buckets +
                geo_.bucketOf[syn.delay];
            records_[counts_[at]++] = {
                static_cast<uint32_t>(syn.target * maxSynapseTypes +
                                      syn.type),
                syn.weight};
        }
    }

    const Network &net_;
    std::vector<uint64_t> mask_;
    /** This step's decoded rows: the fired list, ascending. */
    std::vector<uint32_t> decoded_;
    /** CSR over (decoded row * shardCount + shard): runs_ and
     *  records_ slices, all shards of a row contiguous. */
    std::vector<uint32_t> runPtr_;
    std::vector<uint32_t> recPtr_;
    std::vector<uint32_t> runs_;
    std::vector<DeliveryRecord> records_;
    // prepareStep() scratch (serial use only).
    std::vector<Synapse> rowScratch_;
    std::vector<uint32_t> counts_;
};

} // namespace

std::unique_ptr<ConnectivityProvider>
makeConnectivityProvider(ConnectivityKind kind, const Network &network,
                         size_t shardCount,
                         telemetry::Registry *metrics)
{
    switch (kind) {
    case ConnectivityKind::Materialized:
        if (network.procedural())
            fatal("materialized connectivity requires stored synapse "
                  "rows; this network is procedural — use "
                  "--connectivity=procedural or compressed");
        return std::make_unique<MaterializedProvider>(
            network, shardCount, metrics);
    case ConnectivityKind::Compressed:
        return std::make_unique<CompressedProvider>(
            network, shardCount, metrics);
    case ConnectivityKind::Procedural:
        if (!network.hasSpec())
            fatal("procedural connectivity requires a generative "
                  "network spec (Network::buildFromSpec)");
        return std::make_unique<ProceduralProvider>(
            network, shardCount, metrics);
    }
    fatal("unknown connectivity kind");
}

} // namespace flexon
