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

static PyObject *k_hier_load(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_HIER_LOAD]++;
    HierDesc *h = (HierDesc *)arg_ptr(args, 0);
    int64_t addr = arg_i64(args, 1);
    if (PyErr_Occurred()) return NULL;
    int64_t line_addr = addr & ~63LL;
    h->n_l2_data = h->n_llc_data = h->n_dram_data = h->n_stream_pf = 0;
    if (cache_lookup_impl(h->l1d, line_addr, 1) >= 0) {
        h->n_l1d_hit = 1;
        return PyLong_FromLongLong(h->l1d_hit_latency);
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
    return PyLong_FromLongLong(h->l1d_hit_latency + latency);
}

static PyObject *k_hier_store(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_HIER_STORE]++;
    HierDesc *h = (HierDesc *)arg_ptr(args, 0);
    int64_t addr = arg_i64(args, 1);
    if (PyErr_Occurred()) return NULL;
    int64_t line_addr = addr & ~63LL;
    h->n_l2_data = h->n_llc_data = h->n_dram_data = h->n_stream_pf = 0;
    int64_t g = cache_lookup_impl(h->l1d, line_addr, 1);
    if (g >= 0) {
        h->n_l1d_hit = 1;
        h->l1d->flags[g] |= FLAG_DIRTY;
        Py_RETURN_NONE;
    }
    h->n_l1d_hit = 0;
    fill_data_line(h, line_addr);
    g = cache_lookup_impl(h->l1d, line_addr, 0);
    if (g >= 0) {
        h->l1d->flags[g] |= FLAG_DIRTY;
    }
    Py_RETURN_NONE;
}

static PyObject *k_hier_imiss(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    repro_kernel_calls[KC_HIER_IMISS]++;
    HierDesc *h = (HierDesc *)arg_ptr(args, 0);
    int64_t line_addr = arg_i64(args, 1);
    if (PyErr_Occurred()) return NULL;
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
    return PyLong_FromLongLong((latency << 2) | level);
}

PyMethodDef repro_cache_methods[] = {
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
