/* Extension-module scaffolding: merges the per-file method tables into one
 * module and exposes the per-kernel dispatch counters for `repro profile`.
 */
#include "kernels.h"

static const char *const KC_NAMES[KC_COUNT] = {
    "btb_contains",
    "btb_fill",
    "run_cycles",
    "functional_walk",
    "check_columns",
    "index_blocks",
};

static PyObject *k_call_counts(PyObject *self, PyObject *args) {
    (void)self; (void)args;
    PyObject *result = PyDict_New();
    if (result == NULL) return NULL;
    for (int i = 0; i < KC_COUNT; i++) {
        PyObject *value = PyLong_FromLongLong(repro_kernel_calls[i]);
        if (value == NULL || PyDict_SetItemString(result, KC_NAMES[i], value) < 0) {
            Py_XDECREF(value);
            Py_DECREF(result);
            return NULL;
        }
        Py_DECREF(value);
    }
    return result;
}

static PyObject *k_reset_call_counts(PyObject *self, PyObject *args) {
    (void)self; (void)args;
    for (int i = 0; i < KC_COUNT; i++) {
        repro_kernel_calls[i] = 0;
    }
    Py_RETURN_NONE;
}

#define MAX_METHODS 64
static PyMethodDef all_methods[MAX_METHODS];

static void append_methods(const PyMethodDef *table, int *count) {
    for (const PyMethodDef *m = table; m->ml_name != NULL; m++) {
        if (*count < MAX_METHODS - 1) {
            all_methods[(*count)++] = *m;
        }
    }
}

static PyMethodDef module_methods[] = {
    {"call_counts", k_call_counts, METH_NOARGS, NULL},
    {"reset_call_counts", k_reset_call_counts, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef repro_kernels_module = {
    PyModuleDef_HEAD_INIT,
    "_repro_kernels",
    "Compiled hot-loop kernels over the repro SoA buffers.",
    -1,
    all_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__repro_kernels(void) {
    int count = 0;
    append_methods(repro_cache_methods, &count);
    append_methods(repro_btb_methods, &count);
    append_methods(repro_backend_methods, &count);
    append_methods(repro_driver_methods, &count);
    append_methods(repro_tables_methods, &count);
    append_methods(module_methods, &count);
    all_methods[count].ml_name = NULL;
    return PyModule_Create(&repro_kernels_module);
}
