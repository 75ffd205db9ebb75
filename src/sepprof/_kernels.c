/* Compiled bitmask kernels for graphs of at most 64 vertices: the exhaustive
 * Cheeger search and the exact cut search.
 *
 * Each function has the contract, the enumeration order and the tie rules of
 * its namesake in _kernels_py.py, so both backends return identical results;
 * sepprof.kernels routes larger graphs to the Python module. Vertex v is bit
 * v of a uint64_t, and masks[v] is the neighbour mask of v (undirected graph,
 * no self-loops). Every size and count fits in an int, so no comparison here
 * can overflow; the stop test of cheeger_exhaustive multiplies in long long.
 *
 * Threshold forms, for callers that only need to know whether a value lies
 * at or below a bound:
 *   cheeger_exhaustive(masks, n, mode, stop_num, stop_den) with stop_den > 0
 *     ends at the first new best whose ratio is at most stop_num/stop_den,
 *     which is the first subset in lexicographic order at or below the stop;
 *     when no subset gets there the result is the full search's.
 *   min_cut_exact(masks, n, cap, max_k, budget, min_k) searches the sizes
 *     min_k..max_k only. Removing more vertices never enlarges a component,
 *     so the search from min_k = t finds a cut of t vertices exactly when
 *     one of at most t exists.
 * Without the optional arguments both run the full search, with no extra
 * work per subset.
 *
 * Build: setup.py, or by hand with any C compiler, e.g.
 *   cc -O2 -shared -fPIC -I$(python3 -c "import sysconfig; \
 *       print(sysconfig.get_paths()['include'])") _kernels.c \
 *       -o _kernels$(python3-config --extension-suffix)
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>

#define MAX_N 64
#define MODE_MAJORED 1
#define MODE_EDGE 2

static int popcount(uint64_t x) { return __builtin_popcountll(x); }
static int lowest(uint64_t x) { return __builtin_ctzll(x); }

/* Copy masks[0..n) into out; n must be in [0, 64]. */
static int load_masks(PyObject *seq, int n, uint64_t *out)
{
    if (n < 0 || n > MAX_N) {
        PyErr_SetString(PyExc_ValueError, "n must be in [0, 64]");
        return -1;
    }
    PyObject *fast = PySequence_Fast(seq, "masks must be a sequence");
    if (fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) < n) {
        PyErr_SetString(PyExc_ValueError, "fewer than n masks");
        Py_DECREF(fast);
        return -1;
    }
    for (int v = 0; v < n; v++) {
        out[v] = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(fast, v));
        if (out[v] == (uint64_t)-1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
    }
    Py_DECREF(fast);
    return 0;
}

/* "O&" converter for a budget: any Python int, saturated to long long. */
static int to_budget(PyObject *obj, void *out)
{
    int overflow;
    long long b = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (b == -1 && PyErr_Occurred())
        return 0;
    *(long long *)out = overflow > 0 ? LLONG_MAX : overflow < 0 ? -1 : b;
    return 1;
}

/* ---- cheeger_exhaustive ------------------------------------------------ */

typedef struct {
    const uint64_t *masks;
    uint64_t suffix[MAX_N + 1]; /* suffix[v] = masks[v] | ... | masks[n-1] */
    int n, mode, max_size;
    int stop_num, stop_den;     /* stop_den 0 means never stop */
    int best_num, best_size;    /* best_size 0 means +infinity */
    uint64_t best_mask;
} Cheeger;

/* Extend A (size members, all below start) by each v >= start in turn.
 * skipped is the union of the masks of the vertices passed over below v, so
 * N(V - A) = skipped | suffix[v + 1] once v has joined A. */
static void cheeger_rec(Cheeger *c, uint64_t a_mask, int size, uint64_t uni,
                        int cross, uint64_t skipped, int start)
{
    size += 1;
    for (int v = start; v < c->n; v++) {
        uint64_t m = c->masks[v];
        uint64_t new_a = a_mask | (uint64_t)1 << v;
        uint64_t new_union = uni | m;
        int new_cross = 0, num;
        if (c->mode == MODE_EDGE) {
            new_cross = cross - popcount(m & a_mask) + popcount(m & ~new_a);
            num = new_cross;
        } else {
            num = popcount(new_union & ~new_a);
            if (c->mode == MODE_MAJORED)
                num += popcount((skipped | c->suffix[v + 1]) & new_a);
        }
        if (num * c->best_size < c->best_num * size) {
            c->best_num = num;
            c->best_size = size;
            c->best_mask = new_a;
            if (c->stop_den && (long long)num * c->stop_den
                    <= (long long)c->stop_num * size) {
                /* Every enclosing loop runs while v < c->n, so this ends
                 * the whole search as the recursion unwinds. */
                c->n = 0;
                return;
            }
        }
        if (size < c->max_size)
            cheeger_rec(c, new_a, size, new_union, new_cross, skipped, v + 1);
        skipped |= m;
    }
}

static PyObject *cheeger_exhaustive(PyObject *self, PyObject *args)
{
    PyObject *seq;
    uint64_t masks[MAX_N];
    Cheeger c;
    c.stop_num = c.stop_den = 0;
    if (!PyArg_ParseTuple(args, "Oii|ii", &seq, &c.n, &c.mode, &c.stop_num,
                          &c.stop_den)
            || load_masks(seq, c.n, masks) < 0)
        return NULL;
    c.max_size = c.n / 2;
    if (c.max_size == 0)
        return Py_BuildValue("(iii)", 0, 0, 0);
    c.masks = masks;
    c.suffix[c.n] = 0;
    for (int v = c.n - 1; v >= 0; v--)
        c.suffix[v] = c.suffix[v + 1] | masks[v];
    c.best_num = 1;
    c.best_size = 0;
    c.best_mask = 0;
    Py_BEGIN_ALLOW_THREADS
    cheeger_rec(&c, 0, 0, 0, 0, 0, 0);
    Py_END_ALLOW_THREADS
    return Py_BuildValue("(iiK)", c.best_num, c.best_size,
                         (unsigned long long)c.best_mask);
}

/* ---- min_cut_exact ----------------------------------------------------- */

typedef struct {
    const uint64_t *masks;
    uint64_t full, found;
    int n, k, cap;
    long long budget, examined;
} Cut;

/* Whether every component of G - cut_mask has at most cap vertices. */
static int components_ok(const Cut *s, uint64_t cut_mask)
{
    uint64_t rem = s->full & ~cut_mask;
    while (rem) {
        uint64_t comp = rem & -rem, frontier = comp;
        while (frontier) {
            uint64_t nxt = 0;
            for (uint64_t t = frontier; t; t &= t - 1)
                nxt |= s->masks[lowest(t)];
            frontier = nxt & rem & ~comp;
            comp |= frontier;
        }
        if (popcount(comp) > s->cap)
            return 0;
        rem &= ~comp;
    }
    return 1;
}

/* Visit the k-subsets extending mask by vertices >= start in lexicographic
 * order. Returns 1 with s->found set at the first cut, -1 once more than
 * budget subsets were examined, 0 if no extension is a cut. */
static int cut_rec(Cut *s, uint64_t mask, int size, int start)
{
    if (size == s->k) {
        if (++s->examined > s->budget)
            return -1;
        if (!components_ok(s, mask))
            return 0;
        s->found = mask;
        return 1;
    }
    for (int v = start; v <= s->n - (s->k - size); v++) {
        int r = cut_rec(s, mask | (uint64_t)1 << v, size + 1, v + 1);
        if (r != 0)
            return r;
    }
    return 0;
}

static PyObject *min_cut_exact(PyObject *self, PyObject *args)
{
    PyObject *seq;
    uint64_t masks[MAX_N];
    Cut s;
    int max_k, min_k = 0, r = 0;
    if (!PyArg_ParseTuple(args, "OiiiO&|i", &seq, &s.n, &s.cap, &max_k,
                          to_budget, &s.budget, &min_k)
            || load_masks(seq, s.n, masks) < 0)
        return NULL;
    s.masks = masks;
    s.full = s.n == MAX_N ? ~(uint64_t)0 : ((uint64_t)1 << s.n) - 1;
    s.examined = 0;
    if (max_k > s.n)
        max_k = s.n;
    Py_BEGIN_ALLOW_THREADS
    for (s.k = min_k < 0 ? 0 : min_k; s.k <= max_k && r == 0; s.k++)
        r = cut_rec(&s, 0, 0, 0);
    Py_END_ALLOW_THREADS
    if (r == 1)
        return Py_BuildValue("(KL)", (unsigned long long)s.found, s.examined);
    return Py_BuildValue("(iL)", r == -1 ? -2 : -1, s.examined);
}

/* ---- module ------------------------------------------------------------ */

static PyMethodDef methods[] = {
    {"cheeger_exhaustive", cheeger_exhaustive, METH_VARARGS,
     "cheeger_exhaustive(masks, n, mode, stop_num=0, stop_den=0)"
     " -> (boundary, size, mask)"},
    {"min_cut_exact", min_cut_exact, METH_VARARGS,
     "min_cut_exact(masks, n, cap, max_k, budget, min_k=0)"
     " -> (mask, examined)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "sepprof._kernels",
    "Compiled bitmask kernels; see _kernels_py for the contracts.", -1,
    methods,
};

PyMODINIT_FUNC PyInit__kernels(void) { return PyModule_Create(&module); }
