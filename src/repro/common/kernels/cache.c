/* Set-associative cache kernels plus the fused data/instruction miss path.
 *
 * Ports of memory/cache.py (SetAssocCache), memory/stream.py and
 * memory/hierarchy.py, operating on the descriptor layouts in kernels.h.
 * Replacement is stamp-LRU (see the header note on dict-order equivalence);
 * free-way choice is lowest index, which is invisible to behaviour and
 * serialization.
 */
#include "kernels.h"

int64_t repro_kernel_calls[KC_COUNT];

static inline int64_t cache_find(CacheDesc *c, int64_t line_addr, int64_t *set_base) {
    int64_t set_idx = (line_addr >> c->line_shift) & c->set_mask;
    int64_t base = set_idx * c->assoc;
    *set_base = base;
    const int64_t *addrs = c->addrs;
    for (int64_t w = 0; w < c->assoc; w++) {
        if (addrs[base + w] == line_addr) {
            return base + w;
        }
    }
    return -1;
}

int64_t cache_lookup_impl(CacheDesc *c, int64_t line_addr, int touch) {
    int64_t base;
    int64_t g = cache_find(c, line_addr, &base);
    if (g >= 0 && touch) {
        c->stamps[g] = ++c->stamp;
    }
    return g;
}

int64_t cache_install_impl(CacheDesc *c, int64_t line_addr, int64_t flags) {
    int64_t base;
    int64_t g = cache_find(c, line_addr, &base);
    c->evict_addr = -1;
    if (g >= 0) {
        /* Refresh in place: touch LRU, OR in dirty only -- a re-install
         * never re-marks a resident line as prefetched. */
        c->stamps[g] = ++c->stamp;
        if (flags & FLAG_DIRTY) {
            c->flags[g] |= FLAG_DIRTY;
        }
        return g;
    }
    /* Lowest-index free way first, else the minimum-stamp victim. */
    g = -1;
    for (int64_t w = 0; w < c->assoc; w++) {
        if (c->addrs[base + w] == -1) {
            g = base + w;
            break;
        }
    }
    if (g < 0) {
        int64_t best = c->stamps[base];
        g = base;
        for (int64_t w = 1; w < c->assoc; w++) {
            if (c->stamps[base + w] < best) {
                best = c->stamps[base + w];
                g = base + w;
            }
        }
        c->evict_addr = c->addrs[g];
        c->evict_flags = c->flags[g];
    } else {
        c->occupancy++;
    }
    c->addrs[g] = line_addr;
    c->flags[g] = flags;
    c->stamps[g] = ++c->stamp;
    return g;
}

static PyObject *k_cache_lookup(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_CACHE_LOOKUP]++;
    CacheDesc *c = (CacheDesc *)arg_ptr(args, 0);
    int64_t line_addr = arg_i64(args, 1);
    int64_t touch = arg_i64(args, 2);
    if (PyErr_Occurred()) return NULL;
    return PyLong_FromLongLong(cache_lookup_impl(c, line_addr, (int)touch));
}

static PyObject *k_cache_contains(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_CACHE_CONTAINS]++;
    CacheDesc *c = (CacheDesc *)arg_ptr(args, 0);
    int64_t line_addr = arg_i64(args, 1);
    if (PyErr_Occurred()) return NULL;
    int64_t base;
    return PyLong_FromLong(cache_find(c, line_addr, &base) >= 0);
}

static PyObject *k_cache_install(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_CACHE_INSTALL]++;
    CacheDesc *c = (CacheDesc *)arg_ptr(args, 0);
    int64_t line_addr = arg_i64(args, 1);
    int64_t flags = arg_i64(args, 2);
    if (PyErr_Occurred()) return NULL;
    return PyLong_FromLongLong(cache_install_impl(c, line_addr, flags));
}

static PyObject *k_cache_invalidate(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_CACHE_INVALIDATE]++;
    CacheDesc *c = (CacheDesc *)arg_ptr(args, 0);
    int64_t line_addr = arg_i64(args, 1);
    if (PyErr_Occurred()) return NULL;
    int64_t base;
    int64_t g = cache_find(c, line_addr, &base);
    if (g < 0) {
        return PyLong_FromLong(0);
    }
    c->addrs[g] = -1;
    c->flags[g] = 0;
    c->stamps[g] = 0;
    c->occupancy--;
    return PyLong_FromLong(1);
}

/* ---- stream prefetcher ---- */

/* Port of StreamPrefetcher.on_miss; emits into out[], returns the count. */
static int64_t stream_on_miss_impl(StreamDesc *s, int64_t line_addr, int64_t *out) {
    s->stamp++;
    for (int64_t i = 0; i < s->count; i++) {
        int64_t delta = line_addr - s->last_line[i];
        if (delta == s->direction[i] * 64) {
            s->last_line[i] = line_addr;
            s->lru[i] = s->stamp;
            if (s->confidence[i] < s->train_threshold) {
                s->confidence[i]++;
                return 0;
            }
            for (int64_t k = 0; k < s->degree; k++) {
                out[k] = line_addr + s->direction[i] * 64 * (k + 1);
            }
            s->issued += s->degree;
            return s->degree;
        }
        if (delta == -s->direction[i] * 64) {
            s->direction[i] = -s->direction[i];
            s->last_line[i] = line_addr;
            s->confidence[i] = 1;
            s->lru[i] = s->stamp;
            return 0;
        }
    }
    /* allocate: evict the first minimum-lru stream when full */
    if (s->count >= s->max_streams) {
        int64_t victim = 0;
        int64_t best = s->lru[0];
        for (int64_t i = 1; i < s->count; i++) {
            if (s->lru[i] < best) {
                best = s->lru[i];
                victim = i;
            }
        }
        for (int64_t i = victim; i < s->count - 1; i++) {
            s->last_line[i] = s->last_line[i + 1];
            s->direction[i] = s->direction[i + 1];
            s->confidence[i] = s->confidence[i + 1];
            s->lru[i] = s->lru[i + 1];
        }
        s->count--;
    }
    s->last_line[s->count] = line_addr;
    s->direction[s->count] = 1;
    s->confidence[s->count] = 0;
    s->lru[s->count] = s->stamp;
    s->count++;
    return 0;
}

static PyObject *k_stream_on_miss(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_STREAM_ON_MISS]++;
    StreamDesc *s = (StreamDesc *)arg_ptr(args, 0);
    int64_t line_addr = arg_i64(args, 1);
    int64_t *out = (int64_t *)arg_ptr(args, 2);
    if (PyErr_Occurred()) return NULL;
    return PyLong_FromLongLong(stream_on_miss_impl(s, line_addr, out));
}

/* ---- fused hierarchy paths ---- */

/* Port of MemoryHierarchy._fill_data_line: probe L2/LLC inclusively,
 * install into L1D, return the miss latency and count the serving level. */
static int64_t fill_data_line(HierDesc *h, int64_t line_addr) {
    int64_t latency;
    if (cache_lookup_impl(h->l2, line_addr, 1) >= 0) {
        h->n_l2_data++;
        latency = h->l2_hit_latency;
    } else if (cache_lookup_impl(h->llc, line_addr, 1) >= 0) {
        h->n_llc_data++;
        cache_install_impl(h->l2, line_addr, 0);
        latency = h->llc_hit_latency;
    } else {
        h->n_dram_data++;
        cache_install_impl(h->llc, line_addr, 0);
        cache_install_impl(h->l2, line_addr, 0);
        latency = h->dram_latency;
    }
    cache_install_impl(h->l1d, line_addr, 0);
    return latency;
}

/* Port of MemoryHierarchy.load_latency; the per-level event counts are
 * left in the descriptor for the caller to replay into counters. */
static int64_t hier_load_impl(HierDesc *h, int64_t addr) {
    int64_t line_addr = addr & ~63LL;
    h->n_l2_data = h->n_llc_data = h->n_dram_data = h->n_stream_pf = 0;
    if (cache_lookup_impl(h->l1d, line_addr, 1) >= 0) {
        h->n_l1d_hit = 1;
        return h->l1d_hit_latency;
    }
    h->n_l1d_hit = 0;
    int64_t latency = fill_data_line(h, line_addr);
    if (h->stream != NULL) {
        int64_t prefetch[16]; /* degree capped by the hierarchy factory */
        int64_t count = stream_on_miss_impl(h->stream, line_addr, prefetch);
        for (int64_t i = 0; i < count; i++) {
            if (cache_lookup_impl(h->l1d, prefetch[i], 0) < 0) {
                fill_data_line(h, prefetch[i]);
                h->n_stream_pf++;
            }
        }
    }
    return h->l1d_hit_latency + latency;
}

/* Port of MemoryHierarchy.store_access (write-allocate, mark dirty). */
static void hier_store_impl(HierDesc *h, int64_t addr) {
    int64_t line_addr = addr & ~63LL;
    h->n_l2_data = h->n_llc_data = h->n_dram_data = h->n_stream_pf = 0;
    int64_t g = cache_lookup_impl(h->l1d, line_addr, 1);
    if (g >= 0) {
        h->n_l1d_hit = 1;
        h->l1d->flags[g] |= FLAG_DIRTY;
        return;
    }
    h->n_l1d_hit = 0;
    fill_data_line(h, line_addr);
    g = cache_lookup_impl(h->l1d, line_addr, 0);
    if (g >= 0) {
        h->l1d->flags[g] |= FLAG_DIRTY;
    }
}

/* Port of MemoryHierarchy.instruction_miss_latency: (latency << 2) | level
 * with level 0 = L2, 1 = LLC, 2 = DRAM. */
static int64_t hier_imiss_impl(HierDesc *h, int64_t line_addr) {
    int64_t latency, level;
    if (cache_lookup_impl(h->l2, line_addr, 1) >= 0) {
        latency = h->l2_hit_latency;
        level = 0;
    } else if (cache_lookup_impl(h->llc, line_addr, 1) >= 0) {
        cache_install_impl(h->l2, line_addr, 0);
        latency = h->llc_hit_latency;
        level = 1;
    } else {
        cache_install_impl(h->llc, line_addr, 0);
        cache_install_impl(h->l2, line_addr, 0);
        latency = h->dram_latency;
        level = 2;
    }
    return (latency << 2) | level;
}

static PyObject *k_hier_load(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_HIER_LOAD]++;
    HierDesc *h = (HierDesc *)arg_ptr(args, 0);
    int64_t addr = arg_i64(args, 1);
    if (PyErr_Occurred()) return NULL;
    return PyLong_FromLongLong(hier_load_impl(h, addr));
}

static PyObject *k_hier_store(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_HIER_STORE]++;
    HierDesc *h = (HierDesc *)arg_ptr(args, 0);
    int64_t addr = arg_i64(args, 1);
    if (PyErr_Occurred()) return NULL;
    hier_store_impl(h, addr);
    Py_RETURN_NONE;
}

static PyObject *k_hier_imiss(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_HIER_IMISS]++;
    HierDesc *h = (HierDesc *)arg_ptr(args, 0);
    int64_t line_addr = arg_i64(args, 1);
    if (PyErr_Occurred()) return NULL;
    return PyLong_FromLongLong(hier_imiss_impl(h, line_addr));
}

/* ---- packed per-set state (common/packed.py) ----
 *
 * The checkpoint form of every set-associative structure -- the caches,
 * the BTB and the iBTB: a uint16 entry count per set, then one flat buffer
 * per payload plane holding the resident entries set-major and LRU->MRU
 * (ascending stamp, ties by way index) within their set.  The structure's
 * ways are int64 [num_sets * assoc] arrays; `tags` is the one marking free
 * ways (-1).  A plane travels at width 8 (int64) or narrowed to width 1
 * (uint8 flags and branch kinds).
 *
 * Arguments after the geometry come in groups, one per plane: (ways,
 * width) for the export, (ways, width, packed buffer) for the import.
 */

#define MAX_PLANES 4

typedef struct {
    int64_t *ways;
    Py_ssize_t width;  /* 8: int64, 1: uint8 */
    char *packed;
} Plane;

/* Parse `count` plane groups of `stride` arguments starting at args[0]. */
static int parse_planes(PyObject *const *args, Py_ssize_t count, Py_ssize_t stride,
                        Plane *planes) {
    if (count > MAX_PLANES) {
        PyErr_SetString(PyExc_TypeError, "too many packed planes");
        return -1;
    }
    for (Py_ssize_t p = 0; p < count; p++) {
        planes[p].ways = (int64_t *)arg_ptr(args, p * stride);
        planes[p].width = PyLong_AsSsize_t(args[p * stride + 1]);
        if (PyErr_Occurred()) return -1;
        if (planes[p].width != 8 && planes[p].width != 1) {
            PyErr_SetString(PyExc_ValueError, "plane width must be 8 or 1");
            return -1;
        }
    }
    return 0;
}

static inline void plane_put(const Plane *plane, int64_t i, int64_t value) {
    if (plane->width == 8) {
        memcpy(plane->packed + i * 8, &value, 8);
    } else {
        ((uint8_t *)plane->packed)[i] = (uint8_t)value;
    }
}

static inline int64_t plane_get(const Plane *plane, int64_t i) {
    if (plane->width == 8) {
        int64_t value;
        memcpy(&value, plane->packed + i * 8, 8);
        return value;
    }
    return ((const uint8_t *)plane->packed)[i];
}

/* ways_export(tags, stamps, num_sets, assoc, *(ways, width)) ->
 * (counts, *planes), every one bytes. */
static PyObject *k_ways_export(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self;
    if (n < 4 || (n - 4) % 2 != 0) {
        PyErr_SetString(PyExc_TypeError, "ways_export: geometry, then (ways, width) pairs");
        return NULL;
    }
    const int64_t *tags = (const int64_t *)arg_ptr(args, 0);
    const int64_t *stamps = (const int64_t *)arg_ptr(args, 1);
    int64_t num_sets = arg_i64(args, 2);
    int64_t assoc = arg_i64(args, 3);
    Py_ssize_t count = (n - 4) / 2;
    Plane planes[MAX_PLANES];
    if (PyErr_Occurred() || parse_planes(args + 4, count, 2, planes) < 0) return NULL;
    int64_t total = 0;
    for (int64_t g = 0; g < num_sets * assoc; g++) {
        total += tags[g] != -1;
    }
    int64_t *order = PyMem_Malloc((size_t)(assoc > 0 ? assoc : 1) * sizeof(int64_t));
    PyObject *out = PyTuple_New(1 + count);
    PyObject *counts = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)(num_sets * 2));
    if (order == NULL || out == NULL || counts == NULL) {
        if (order == NULL) PyErr_NoMemory();
        Py_XDECREF(counts);
        goto fail;
    }
    PyTuple_SET_ITEM(out, 0, counts);
    for (Py_ssize_t p = 0; p < count; p++) {
        PyObject *plane = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)(total * planes[p].width));
        if (plane == NULL) goto fail;
        PyTuple_SET_ITEM(out, 1 + p, plane);
        planes[p].packed = PyBytes_AS_STRING(plane);
    }
    int64_t pos = 0;
    for (int64_t s = 0; s < num_sets; s++) {
        int64_t base = s * assoc, k = 0;
        for (int64_t w = 0; w < assoc; w++) {
            int64_t g = base + w;
            if (tags[g] == -1) continue;
            int64_t j = k++;
            while (j > 0 && stamps[order[j - 1]] > stamps[g]) {
                order[j] = order[j - 1];
                j--;
            }
            order[j] = g;
        }
        uint16_t resident = (uint16_t)k;
        memcpy(PyBytes_AS_STRING(counts) + s * 2, &resident, 2);
        for (Py_ssize_t p = 0; p < count; p++) {
            for (int64_t i = 0; i < k; i++) {
                plane_put(&planes[p], pos + i, planes[p].ways[order[i]]);
            }
        }
        pos += k;
    }
    PyMem_Free(order);
    return out;
fail:
    PyMem_Free(order);
    Py_XDECREF(out);
    return NULL;
}

/* ways_import(tags, stamps, num_sets, assoc, stamp, counts,
 * *(ways, width, packed)) -> entries loaded.
 *
 * Entries land in ways 0..n-1 of their set with stamps stamp+1, stamp+2,
 * ... counting up set-major LRU->MRU, which ranks them exactly like the
 * packed order; every other way is freed.  common/packed.unpack validates
 * a state first, with its own messages, so the checks here only guard the
 * arrays: a mismatch raises ValueError before anything is written. */
static PyObject *k_ways_import(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self;
    if (n < 6 || (n - 6) % 3 != 0) {
        PyErr_SetString(PyExc_TypeError, "ways_import: geometry, counts, then (ways, width, packed) triples");
        return NULL;
    }
    int64_t *tags = (int64_t *)arg_ptr(args, 0);
    int64_t *stamps = (int64_t *)arg_ptr(args, 1);
    int64_t num_sets = arg_i64(args, 2);
    int64_t assoc = arg_i64(args, 3);
    int64_t stamp = arg_i64(args, 4);
    Py_ssize_t count = (n - 6) / 3;
    Plane planes[MAX_PLANES];
    if (PyErr_Occurred() || parse_planes(args + 6, count, 3, planes) < 0) return NULL;
    Py_buffer views[1 + MAX_PLANES];
    Py_ssize_t held = 0;
    PyObject *result = NULL;
    int64_t total = 0;
    int ok = 1;
    for (; held <= count; held++) {
        PyObject *source = held == 0 ? args[5] : args[6 + 3 * (held - 1) + 2];
        if (PyObject_GetBuffer(source, &views[held], PyBUF_SIMPLE) < 0) goto done;
    }
    const char *counts = views[0].buf;
    ok = views[0].len == num_sets * 2;
    for (int64_t s = 0; ok && s < num_sets; s++) {
        uint16_t resident;
        memcpy(&resident, counts + s * 2, 2);
        ok = resident <= assoc;
        total += resident;
    }
    for (Py_ssize_t p = 0; ok && p < count; p++) {
        planes[p].packed = views[1 + p].buf;
        ok = views[1 + p].len == total * planes[p].width;
    }
    if (!ok) {
        PyErr_SetString(PyExc_ValueError, "packed state does not fit the buffer's geometry");
        goto done;
    }
    for (Py_ssize_t p = 0; p < count; p++) {
        memset(planes[p].ways, 0, (size_t)(num_sets * assoc) * sizeof(int64_t));
    }
    for (int64_t g = 0; g < num_sets * assoc; g++) {
        tags[g] = -1;
        stamps[g] = 0;
    }
    int64_t pos = 0;
    for (int64_t s = 0; s < num_sets; s++) {
        uint16_t resident;
        memcpy(&resident, counts + s * 2, 2);
        for (int64_t i = 0; i < resident; i++) {
            int64_t g = s * assoc + i;
            stamps[g] = stamp + 1 + pos + i;
            for (Py_ssize_t p = 0; p < count; p++) {
                planes[p].ways[g] = plane_get(&planes[p], pos + i);
            }
        }
        pos += resident;
    }
    result = PyLong_FromLongLong(total);
done:
    for (Py_ssize_t i = 0; i < held; i++) {
        PyBuffer_Release(&views[i]);
    }
    return result;
}

PyMethodDef repro_cache_methods[] = {
    {"ways_export", (PyCFunction)(void *)k_ways_export, METH_FASTCALL, NULL},
    {"ways_import", (PyCFunction)(void *)k_ways_import, METH_FASTCALL, NULL},
    {"cache_lookup", (PyCFunction)(void *)k_cache_lookup, METH_FASTCALL, NULL},
    {"cache_contains", (PyCFunction)(void *)k_cache_contains, METH_FASTCALL, NULL},
    {"cache_install", (PyCFunction)(void *)k_cache_install, METH_FASTCALL, NULL},
    {"cache_invalidate", (PyCFunction)(void *)k_cache_invalidate, METH_FASTCALL, NULL},
    {"stream_on_miss", (PyCFunction)(void *)k_stream_on_miss, METH_FASTCALL, NULL},
    {"hier_load", (PyCFunction)(void *)k_hier_load, METH_FASTCALL, NULL},
    {"hier_store", (PyCFunction)(void *)k_hier_store, METH_FASTCALL, NULL},
    {"hier_imiss", (PyCFunction)(void *)k_hier_imiss, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};
