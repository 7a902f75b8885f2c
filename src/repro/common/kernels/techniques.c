/* The built-in comparators' tables: EIP's entangling table and MANA's
 * region records and HOBPT.
 *
 * Ports of prefetchers/eip.py (EntangledInstructionPrefetcher) and
 * prefetchers/mana.py (MANAPrefetcher) for the cycle driver, which calls
 * eip_access and mana_access where a plug-in technique's on_demand_access
 * is called back.  Every table is an OrderedDict in the object oracle; here
 * it is an LruMap, so recency, eviction and the tables' order are the
 * same.  The descriptors and arrays are owned by the compiled twins in
 * prefetchers/compiled.py, which read them for state().
 */
#include "kernels.h"

#include <string.h>

/* An OrderedDict of int64 keys over `cap` slots, with move_to_end and
 * popitem(last=False): a doubly linked recency list through prev/next,
 * oldest first, and an open-addressing index (linear probing,
 * backward-shift deletion) from key to slot.  Free slots chain through
 * next.  Payloads live in the owner's arrays, indexed by slot. */
typedef struct {
    int64_t *keys;      /* [cap] */
    int64_t *prev;      /* [cap] the next older slot, -1 = none */
    int64_t *next;      /* [cap] the next younger slot, -1 = none */
    int64_t *index;     /* [index_mask + 1] slot + 1 per bucket, 0 = empty */
    int64_t index_mask; /* buckets - 1; at least 2 * cap buckets */
    int64_t cap;
    int64_t len;
    int64_t oldest;     /* -1 when empty */
    int64_t youngest;
    int64_t free;       /* first free slot, -1 when full */
} LruMap;

static inline int64_t lru_bucket(const LruMap *m, int64_t key) {
    return (int64_t)(mix64((uint64_t)key) & (uint64_t)m->index_mask);
}

/* The slot holding `key`, or -1. */
static int64_t lru_find(const LruMap *m, int64_t key) {
    for (int64_t h = lru_bucket(m, key);; h = (h + 1) & m->index_mask) {
        int64_t s = m->index[h] - 1;
        if (s < 0 || m->keys[s] == key) return s;
    }
}

static void lru_unlink(LruMap *m, int64_t s) {
    int64_t p = m->prev[s], n = m->next[s];
    if (p >= 0) m->next[p] = n; else m->oldest = n;
    if (n >= 0) m->prev[n] = p; else m->youngest = p;
}

static void lru_append(LruMap *m, int64_t s) {
    m->prev[s] = m->youngest;
    m->next[s] = -1;
    if (m->youngest >= 0) m->next[m->youngest] = s; else m->oldest = s;
    m->youngest = s;
}

/* move_to_end */
static inline void lru_touch(LruMap *m, int64_t s) {
    if (s == m->youngest) return;
    lru_unlink(m, s);
    lru_append(m, s);
}

/* Insert an absent `key` as the youngest; the caller made room. */
static int64_t lru_insert(LruMap *m, int64_t key) {
    int64_t s = m->free;
    m->free = m->next[s];
    m->keys[s] = key;
    lru_append(m, s);
    int64_t h = lru_bucket(m, key);
    while (m->index[h]) h = (h + 1) & m->index_mask;
    m->index[h] = s + 1;
    m->len++;
    return s;
}

/* del: unlink slot `s` and close the gap its bucket leaves. */
static void lru_remove(LruMap *m, int64_t s) {
    int64_t mask = m->index_mask;
    int64_t h = lru_bucket(m, m->keys[s]);
    while (m->index[h] != s + 1) h = (h + 1) & mask;
    for (int64_t j = (h + 1) & mask;; j = (j + 1) & mask) {
        int64_t t = m->index[j] - 1;
        if (t < 0) break;
        /* t may fill the hole unless its home bucket lies in (h, j] */
        if (((j - lru_bucket(m, m->keys[t])) & mask) >= ((j - h) & mask)) {
            m->index[h] = t + 1;
            h = j;
        }
    }
    m->index[h] = 0;
    lru_unlink(m, s);
    m->next[s] = m->free;
    m->free = s;
    m->len--;
}

/* ---- EIP (prefetchers/eip.py) ---- */

typedef struct {
    LruMap *table;        /* source line -> its slot's destination lines */
    int64_t *ntargets;    /* [cap] */
    int64_t *targets;     /* [cap * per_entry] destinations, oldest first */
    int64_t per_entry;    /* targets_per_entry */
    int64_t *recent;      /* [distance + 1] ring of the last demanded lines */
    int64_t recent_head;  /* the oldest */
    int64_t recent_len;
    int64_t distance;     /* entangling_distance */
    int64_t wrong_path_aware;
    int64_t trained;
    int64_t triggered;
    int64_t *out;         /* [per_entry] the lines of the last access */
} EipDesc;

/* _train: entangle the miss with the line demanded `distance` accesses
 * before it. */
static void eip_train(EipDesc *e, int64_t miss) {
    if (e->recent_len <= e->distance) return;
    int64_t source = e->recent[e->recent_head];
    if (source == miss) return;
    LruMap *t = e->table;
    int64_t s = lru_find(t, source);
    if (s < 0) {
        if (t->len >= t->cap) lru_remove(t, t->oldest);
        s = lru_insert(t, source);
        e->targets[s * e->per_entry] = miss;
        e->ntargets[s] = 1;
    } else {
        int64_t *targets = e->targets + s * e->per_entry;
        int64_t n = e->ntargets[s];
        int64_t i = 0;
        while (i < n && targets[i] != miss) i++;
        if (i == n) {
            if (n >= e->per_entry) {
                memmove(targets, targets + 1, (size_t)(n - 1) * sizeof(int64_t));
                n--;
            }
            targets[n++] = miss;
            e->ntargets[s] = n;
        }
        lru_touch(t, s);
    }
    e->trained++;
}

/* on_demand_access: the lines to prefetch, in e->out; returns their count. */
static int64_t eip_access(EipDesc *e, int64_t line, int hit, int on_path) {
    if (e->wrong_path_aware && !on_path) return 0;
    int64_t n = 0;
    int64_t s = lru_find(e->table, line);
    if (s >= 0) {
        lru_touch(e->table, s);
        n = e->ntargets[s];
        memcpy(e->out, e->targets + s * e->per_entry, (size_t)n * sizeof(int64_t));
        e->triggered += n;
    }
    if (!hit) eip_train(e, line);
    int64_t ring = e->distance + 1;
    if (e->recent_len < ring) {
        int64_t at = e->recent_head + e->recent_len++;
        e->recent[at < ring ? at : at - ring] = line;
    } else {
        e->recent[e->recent_head] = line;
        e->recent_head = e->recent_head + 1 < ring ? e->recent_head + 1 : 0;
    }
    return n;
}

/* ---- MANA (prefetchers/mana.py) ---- */

typedef struct {
    LruMap *records;      /* trigger line -> its slot's footprint and successor */
    int64_t *successor;   /* [cap] the next trigger, -1 = none */
    uint64_t *footprint;  /* [cap * words] bit i: line trigger + 64 * (i + 1) */
    int64_t words;        /* footprint words per record */
    LruMap *hob;          /* HOBPT: high-order patterns, keys only */
    int64_t hob_shift;
    int64_t region_lines;
    int64_t lookahead;    /* lookahead_records */
    int64_t cur_trigger;  /* the open region's trigger, -1 = none */
    uint64_t *cur_footprint;  /* [words] */
    int64_t trained;
    int64_t triggered;
    int64_t hob_evictions;
    int64_t *out;         /* the lines of the last replay */
} ManaDesc;

/* trigger >> hob_shift, as Python shifts a non-negative int. */
static inline int64_t mana_pattern(const ManaDesc *m, int64_t trigger) {
    return m->hob_shift < 63 ? trigger >> m->hob_shift : 0;
}

/* Append `line` to out[0..n) unless it is there; the new count. */
static inline int64_t emit_once(int64_t *out, int64_t n, int64_t line) {
    for (int64_t i = 0; i < n; i++) {
        if (out[i] == line) return n;
    }
    out[n] = line;
    return n + 1;
}

/* _replay: follow the record chain from `line`; the lines land in m->out. */
static int64_t mana_replay(ManaDesc *m, int64_t line) {
    LruMap *r = m->records;
    int64_t s = lru_find(r, line);
    int64_t n = 0;
    int64_t trigger = line;
    for (int64_t step = 0; s >= 0 && step < m->lookahead; step++) {
        lru_touch(r, s);
        const uint64_t *footprint = m->footprint + s * m->words;
        for (int64_t w = 0; w < m->words; w++) {
            for (uint64_t bits = footprint[w]; bits; bits &= bits - 1) {
                int64_t i = 64 * w + __builtin_ctzll(bits);
                n = emit_once(m->out, n, trigger + 64 * (i + 1));
            }
        }
        int64_t successor = m->successor[s];
        if (successor < 0) break;
        n = emit_once(m->out, n, successor);
        s = lru_find(r, successor);
        trigger = successor;
    }
    m->triggered += n;
    return n;
}

/* _touch_hob: an evicted pattern drops every record under it. */
static void mana_touch_hob(ManaDesc *m, int64_t trigger) {
    LruMap *h = m->hob;
    int64_t pattern = mana_pattern(m, trigger);
    int64_t s = lru_find(h, pattern);
    if (s >= 0) {
        lru_touch(h, s);
        return;
    }
    if (h->len >= h->cap) {
        /* the new pattern evicts the oldest */
        int64_t victim = h->keys[h->oldest];
        lru_remove(h, h->oldest);
        m->hob_evictions++;
        LruMap *r = m->records;
        for (int64_t t = r->oldest; t >= 0;) {
            int64_t younger = r->next[t];
            if (mana_pattern(m, r->keys[t]) == victim) lru_remove(r, t);
            t = younger;
        }
    }
    lru_insert(h, pattern);
}

/* _commit: merge the open region into its trigger's record. */
static void mana_commit(ManaDesc *m, int64_t trigger, int64_t successor) {
    LruMap *r = m->records;
    int64_t s = lru_find(r, trigger);
    uint64_t *footprint;
    if (s < 0) {
        if (r->len >= r->cap) lru_remove(r, r->oldest);
        s = lru_insert(r, trigger);
        footprint = m->footprint + s * m->words;
        memcpy(footprint, m->cur_footprint, (size_t)m->words * sizeof(uint64_t));
    } else {
        footprint = m->footprint + s * m->words;
        for (int64_t w = 0; w < m->words; w++) footprint[w] |= m->cur_footprint[w];
        lru_touch(r, s);
    }
    m->successor[s] = successor;
    mana_touch_hob(m, trigger);
    m->trained++;
}

/* _observe: grow the open region, or commit it when the stream leaves. */
static void mana_observe(ManaDesc *m, int64_t line) {
    int64_t trigger = m->cur_trigger;
    if (trigger >= 0) {
        if (line >= trigger && (line - trigger) >> 6 < m->region_lines) {
            int64_t offset = (line - trigger) >> 6;
            if (offset > 0) m->cur_footprint[(offset - 1) >> 6] |= 1ULL << ((offset - 1) & 63);
            return;
        }
        mana_commit(m, trigger, line);
    }
    m->cur_trigger = line;
    memset(m->cur_footprint, 0, (size_t)m->words * sizeof(uint64_t));
}

/* on_demand_access: the replayed lines, in m->out; returns their count. */
static int64_t mana_access(ManaDesc *m, int64_t line) {
    int64_t n = mana_replay(m, line);
    mana_observe(m, line);
    return n;
}
