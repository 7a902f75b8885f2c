/* Out-of-order backend kernels over SoA ring storage.
 *
 * Port of backend/core.py (BackendCore) plus workloads/data.py
 * (DataAddressGenerator.next_address), for the cycle driver.  The ROB is a
 * contiguous seq range
 * [rob_head, next_seq) -- the interpreted deque only ever appends, pops
 * from the left, and truncates from the right -- so uop state lives in
 * ring arrays indexed by seq & cap_mask and the ROB itself needs no
 * storage at all.  The RS is a seq array in dispatch order.
 *
 * Memory latencies are *deferred*: the issue scan marks an issued load's
 * complete_cycle with the WAKE_IDLE sentinel and appends (seq, is_store)
 * to out_mem; the driver replays that list in scan order right after the
 * scan, calling the hierarchy for the real latency.
 * Equivalence argument: a same-scan dependent sees sentinel > cycle
 * (blocked, exactly like any real latency >= 1); the sentinel as a wake
 * candidate is harmless because a load issuing forces issued_any, which
 * pins the wake to cycle+1; and scan-order replay preserves every L1D
 * LRU/stream/counter interaction, including same-scan store->load pairs.
 *
 * A dep reference with seq < rob_head has retired; its ring slot may be
 * recycled, but a retired load is by definition complete at or before the
 * current cycle, so "retired" collapses to "satisfied" (and in
 * next_event_cycle, to the plain dispatch+d2e bound -- the clamp to
 * cycle+1 absorbs the difference).  Live deps always have valid slots
 * because next_seq - rob_head <= rob_entries <= ring capacity.
 */
#include "kernels.h"

#include <string.h>

#define STACK_BASE 0x7FF0000000LL
#define STACK_SPAN (16 * 1024)
#define HEAP_BASE 0x1000000000LL
#define STREAM_REGION (256 * 1024)
#define NUM_STREAMS 64
#define RANDOM_BASE 0x2000000000LL

int64_t data_next_impl(DataDesc *d, int64_t pc) {
    int64_t *slot = &d->occurrences[(pc - d->code_start) >> 2];
    int64_t occurrence = (*slot)++;
    double u = (double)mix64(d->seed ^ (uint64_t)pc) / 18446744073709551616.0;
    if (u < d->stack_frac) {
        int64_t offset = (int64_t)(mix64(d->seed ^ (uint64_t)(pc * 3)) % STACK_SPAN);
        return STACK_BASE + (offset & ~7LL);
    }
    if (u < d->stack_plus_stream_frac) {
        int64_t stream_id = (int64_t)(mix64(d->seed ^ (uint64_t)(pc * 5)) % NUM_STREAMS);
        int64_t base = HEAP_BASE + stream_id * STREAM_REGION;
        return base + (occurrence * d->stride_bytes) % STREAM_REGION;
    }
    uint64_t span = (uint64_t)d->footprint_span;
    int64_t offset =
        (int64_t)(mix64(d->seed ^ (uint64_t)pc ^ (uint64_t)(occurrence * 0x517CC1LL)) % span);
    return RANDOM_BASE + (offset & ~7LL);
}

static inline int64_t depends_on_load(BackendDesc *b, int64_t pc) {
    if (b->dep_table != NULL && (pc >> 2) < b->dep_len) {
        return b->dep_table[pc >> 2];
    }
    return (int64_t)((mix64(b->seed ^ (uint64_t)pc) & 0xFFFFFFFFULL)
                     < (uint64_t)b->dep_threshold);
}

static inline int64_t dispatch_one(BackendDesc *b, int64_t pc, int64_t op,
                                   int64_t on_path, int64_t cycle,
                                   int64_t has_resteer) {
    int64_t seq = b->next_seq++;
    int64_t slot = seq & b->cap_mask;
    b->pc[slot] = pc;
    b->op[slot] = op;
    b->flags[slot] = (on_path ? UOP_ON_PATH : 0) | (has_resteer ? UOP_HAS_RESTEER : 0);
    b->dep[slot] = -1;
    b->addr[slot] = 0;
    b->dispatch_cycle[slot] = cycle;
    b->complete_cycle[slot] = -1;
    if (op == OPC_LOAD || op == OPC_STORE) {
        b->addr[slot] = data_next_impl(b->data, pc);
    }
    if (op == OPC_LOAD) {
        b->last_load = seq;
    } else if (b->last_load >= 0 && depends_on_load(b, pc)) {
        b->dep[slot] = b->last_load;
    }
    b->rs[b->rs_len++] = seq;
    int64_t t = cycle + b->d2e;
    if (t < b->issue_wake) {
        b->issue_wake = t;
    }
    return seq;
}

static inline int64_t can_dispatch(BackendDesc *b) {
    return (b->next_seq - b->rob_head) < b->rob_entries && b->rs_len < b->rs_entries;
}

/* Returns (wrong_path_retired << 32) | n_hook_pcs (pcs in out_retired). */
static int64_t be_retire_impl(BackendDesc *b, int64_t cycle) {
    int64_t retired = 0, wrong = 0, hook_n = 0;
    while (b->rob_head < b->next_seq && retired < b->retire_width) {
        int64_t slot = b->rob_head & b->cap_mask;
        if (!(b->flags[slot] & UOP_ISSUED) || b->complete_cycle[slot] > cycle) {
            break;
        }
        b->rob_head++;
        retired++;
        b->retired_total++;
        if (b->flags[slot] & UOP_ON_PATH) {
            b->retired_instructions++;
            if (b->hook_active) {
                b->out_retired[hook_n++] = b->pc[slot];
            }
        } else {
            wrong++;
        }
    }
    return (wrong << 32) | hook_n;
}

/* Issue scan; memory ops land in out_mem as (seq, is_store) pairs for the
 * driver to replay against the hierarchy.  Returns the pair count. */
static int64_t be_issue_impl(BackendDesc *b, int64_t cycle) {
    if (cycle < b->issue_wake) {
        return 0;
    }
    if (b->rs_len == 0) {
        b->issue_wake = WAKE_IDLE;
        return 0;
    }
    int64_t cap = b->cap_mask;
    int64_t first = b->rs[0] & cap;
    if (cycle < b->dispatch_cycle[first] + b->d2e && !(b->flags[first] & UOP_ISSUED)) {
        b->issue_wake = b->dispatch_cycle[first] + b->d2e;
        return 0;
    }
    int64_t alu_slots = b->num_alu;
    int64_t load_slots = b->num_load;
    int64_t store_slots = b->num_store;
    int64_t issued_any = 0;
    int64_t wake = WAKE_IDLE;
    int64_t n_mem = 0;
    int64_t scan = b->rs_len < b->scan_window ? b->rs_len : b->scan_window;
    int64_t i = 0;
    for (; i < scan; i++) {
        int64_t seq = b->rs[i];
        int64_t slot = seq & cap;
        if (b->flags[slot] & UOP_ISSUED) {
            issued_any = 1;
            continue;
        }
        if (cycle < b->dispatch_cycle[slot] + b->d2e) {
            int64_t t = b->dispatch_cycle[slot] + b->d2e;
            if (t < wake) wake = t;
            break; /* younger entries are even later */
        }
        int64_t dep = b->dep[slot];
        if (dep >= b->rob_head) { /* dep < rob_head retired: satisfied */
            int64_t dslot = dep & cap;
            if (!(b->flags[dslot] & UOP_ISSUED) || b->complete_cycle[dslot] > cycle) {
                if ((b->flags[dslot] & UOP_ISSUED) && b->complete_cycle[dslot] < wake) {
                    wake = b->complete_cycle[dslot];
                }
                continue;
            }
        }
        int64_t op = b->op[slot];
        if (op == OPC_LOAD) {
            if (load_slots == 0) {
                if (cycle + 1 < wake) wake = cycle + 1;
                continue;
            }
            load_slots--;
            b->complete_cycle[slot] = WAKE_IDLE; /* real value set on replay */
            b->out_mem[2 * n_mem] = seq;
            b->out_mem[2 * n_mem + 1] = 0;
            n_mem++;
        } else if (op == OPC_STORE) {
            if (store_slots == 0) {
                if (cycle + 1 < wake) wake = cycle + 1;
                continue;
            }
            store_slots--;
            b->complete_cycle[slot] = cycle + 1;
            b->out_mem[2 * n_mem] = seq;
            b->out_mem[2 * n_mem + 1] = 1;
            n_mem++;
        } else { /* ALU or branch */
            if (alu_slots == 0) {
                if (cycle + 1 < wake) wake = cycle + 1;
                continue;
            }
            alu_slots--;
            b->complete_cycle[slot] = cycle + 1;
            if (b->flags[slot] & UOP_HAS_RESTEER) {
                b->pending_resteer_cycle = cycle + 1;
                b->pending_resteer_seq = seq;
            }
        }
        b->flags[slot] |= UOP_ISSUED;
        issued_any = 1;
    }
    if (issued_any) {
        /* Issued entries lie in the scanned prefix rs[0..i): entries leave
         * the RS in the call that issues them.  Compact it, then move the
         * unscanned tail down whole. */
        int64_t j = 0;
        for (int64_t k = 0; k < i; k++) {
            if (!(b->flags[b->rs[k] & cap] & UOP_ISSUED)) {
                b->rs[j++] = b->rs[k];
            }
        }
        memmove(b->rs + j, b->rs + i, (size_t)(b->rs_len - i) * sizeof(int64_t));
        b->rs_len = j + (b->rs_len - i);
        b->issue_wake = cycle + 1;
    } else {
        b->issue_wake = wake;
    }
    return n_mem;
}

/* The seq of the branch whose resteer fires this cycle, or -1. */
static int64_t be_poll_impl(BackendDesc *b, int64_t cycle) {
    if (b->pending_resteer_cycle < 0 || b->pending_resteer_cycle > cycle) {
        return -1;
    }
    b->pending_resteer_cycle = -1;
    return b->pending_resteer_seq;
}

/* Earliest future cycle with backend work, or NO_EVENT when drained. */
static int64_t be_next_event_impl(BackendDesc *b, int64_t cycle) {
    int64_t cap = b->cap_mask;
    int64_t event = NO_EVENT;
    if (b->pending_resteer_cycle >= 0) {
        event = b->pending_resteer_cycle > cycle ? b->pending_resteer_cycle : cycle + 1;
    }
    if (b->rob_head < b->next_seq) {
        int64_t slot = b->rob_head & cap;
        if (b->flags[slot] & UOP_ISSUED) {
            int64_t t = b->complete_cycle[slot] > cycle ? b->complete_cycle[slot] : cycle + 1;
            if (event == NO_EVENT || t < event) event = t;
        }
    }
    for (int64_t i = 0; i < b->rs_len; i++) {
        int64_t slot = b->rs[i] & cap;
        int64_t dep = b->dep[slot];
        int64_t t;
        if (dep >= b->rob_head) {
            int64_t dslot = dep & cap;
            if (!(b->flags[dslot] & UOP_ISSUED)) {
                continue; /* bounded by the dep's own RS entry */
            }
            t = b->dispatch_cycle[slot] + b->d2e;
            if (b->complete_cycle[dslot] > t) t = b->complete_cycle[dslot];
        } else {
            /* no dep, or a retired dep (complete <= cycle: the clamp below
             * makes the interpreted max() against it a no-op) */
            t = b->dispatch_cycle[slot] + b->d2e;
        }
        if (t <= cycle) t = cycle + 1;
        if (event == NO_EVENT || t < event) event = t;
        if (t == cycle + 1) break;
    }
    return event;
}

/* Drop every uop younger than `branch_seq`; returns how many. */
static int64_t be_squash_impl(BackendDesc *b, int64_t branch_seq) {
    int64_t cap = b->cap_mask;
    int64_t new_next = branch_seq + 1;
    if (new_next < b->rob_head) new_next = b->rob_head;
    if (new_next > b->next_seq) new_next = b->next_seq;
    int64_t squashed = b->next_seq - new_next;
    b->next_seq = new_next;
    while (b->rs_len > 0 && b->rs[b->rs_len - 1] > branch_seq) {
        b->rs_len--;
    }
    b->issue_wake = 0; /* RS compaction shifts the scan window: rescan */
    if (b->last_load >= 0 && b->last_load > branch_seq) {
        b->last_load = -1;
        for (int64_t seq = b->next_seq - 1; seq >= b->rob_head; seq--) {
            if (b->op[seq & cap] == OPC_LOAD) {
                b->last_load = seq;
                break;
            }
        }
    }
    if (b->pending_resteer_cycle >= 0 && b->pending_resteer_seq > branch_seq) {
        b->pending_resteer_cycle = -1;
    }
    return squashed;
}

/* dep_flags(count, seed, threshold) -> bytes: BackendCore._depends_on_load
 * of the instruction addresses 0, 4, ..., 4 * (count - 1), one byte each --
 * the read-only table depends_on_load indexes by pc >> 2. */
static PyObject *k_dep_flags(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    int64_t count = arg_i64(args, 0);
    uint64_t seed = (uint64_t)PyLong_AsUnsignedLongLongMask(args[1]);
    int64_t threshold = arg_i64(args, 2);
    if (PyErr_Occurred()) return NULL;
    PyObject *out = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)(count > 0 ? count : 0));
    if (out == NULL) return NULL;
    uint8_t *flags = (uint8_t *)PyBytes_AS_STRING(out);
    for (int64_t i = 0; i < count; i++) {
        flags[i] = (mix64(seed ^ (uint64_t)(i * 4)) & 0xFFFFFFFFULL) < (uint64_t)threshold;
    }
    return out;
}

/* pc_counts_export(counts, n, base) -> (pcs, values): the nonzero entries
 * of a per-instruction int64 array indexed by (pc - base) >> 2 (the
 * compiled data generator's occurrence counters), as two int64 buffers in
 * pc order. */
static PyObject *k_pc_counts_export(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    const int64_t *counts = (const int64_t *)arg_ptr(args, 0);
    int64_t len = arg_i64(args, 1);
    int64_t base = arg_i64(args, 2);
    if (PyErr_Occurred()) return NULL;
    Py_ssize_t nonzero = 0;
    for (int64_t i = 0; i < len; i++) {
        nonzero += counts[i] != 0;
    }
    PyObject *pcs = PyBytes_FromStringAndSize(NULL, nonzero * 8);
    PyObject *values = PyBytes_FromStringAndSize(NULL, nonzero * 8);
    if (pcs == NULL || values == NULL) {
        Py_XDECREF(pcs);
        Py_XDECREF(values);
        return NULL;
    }
    char *pc_out = PyBytes_AS_STRING(pcs);
    char *value_out = PyBytes_AS_STRING(values);
    for (int64_t i = 0; i < len; i++) {
        if (counts[i] == 0) continue;
        int64_t pc = base + (i << 2);
        memcpy(pc_out, &pc, 8);
        memcpy(value_out, &counts[i], 8);
        pc_out += 8;
        value_out += 8;
    }
    return Py_BuildValue("(NN)", pcs, values);
}

/* pc_counts_import(counts, n, base, pcs, values): replace the array's
 * contents with the pairs of two int64 buffers (pc_counts_export's form).
 * Raises ValueError, with the array untouched, unless the buffers hold the
 * same number of int64s and every (pc - base) >> 2 indexes the array. */
static PyObject *k_pc_counts_import(PyObject *self, PyObject *const *args, Py_ssize_t n) {
    (void)self; (void)n;
    int64_t *counts = (int64_t *)arg_ptr(args, 0);
    int64_t len = arg_i64(args, 1);
    int64_t base = arg_i64(args, 2);
    if (PyErr_Occurred()) return NULL;
    Py_buffer pcs, values;
    if (PyObject_GetBuffer(args[3], &pcs, PyBUF_SIMPLE) < 0) return NULL;
    if (PyObject_GetBuffer(args[4], &values, PyBUF_SIMPLE) < 0) {
        PyBuffer_Release(&pcs);
        return NULL;
    }
    PyObject *result = NULL;
    Py_ssize_t pairs = pcs.len / 8;
    if (pcs.len != values.len || pcs.len % 8 != 0) {
        PyErr_SetString(PyExc_ValueError, "occurrence state arrays disagree in length");
        goto done;
    }
    for (Py_ssize_t i = 0; i < pairs; i++) {
        int64_t pc;
        memcpy(&pc, (const char *)pcs.buf + i * 8, 8);
        if (pc < base || ((pc - base) >> 2) >= len) {
            PyErr_Format(PyExc_ValueError,
                         "occurrence pc %#llx outside the program's code range",
                         (unsigned long long)pc);
            goto done;
        }
    }
    memset(counts, 0, (size_t)len * sizeof(int64_t));
    for (Py_ssize_t i = 0; i < pairs; i++) {
        int64_t pc;
        memcpy(&pc, (const char *)pcs.buf + i * 8, 8);
        memcpy(&counts[(pc - base) >> 2], (const char *)values.buf + i * 8, 8);
    }
    result = Py_None;
    Py_INCREF(result);
done:
    PyBuffer_Release(&pcs);
    PyBuffer_Release(&values);
    return result;
}

PyMethodDef repro_backend_methods[] = {
    {"dep_flags", (PyCFunction)(void *)k_dep_flags, METH_FASTCALL, NULL},
    {"pc_counts_export", (PyCFunction)(void *)k_pc_counts_export, METH_FASTCALL, NULL},
    {"pc_counts_import", (PyCFunction)(void *)k_pc_counts_import, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};
