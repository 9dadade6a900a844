/* Compiled resolution kernel, written against the CPython C API.

   Twin of `_kernel_py`: same entry points, same leaf order, same seeded
   picks, identical results.  A seeded pick is a function of the seed and
   the state alone (`draw`, as `_kernel_py._draw`).  This kernel walks every
   node of the tree, where `_kernel_py.resolve_sum` memoizes the walk.  It
   recurses over an arena of per-depth scratch rows.  resolve_leaves builds
   one tuple per leaf; resolve_sum sums the leaves into a C table of groups
   and builds Python objects only for the result.  Arguments the fixed-size
   buffers cannot hold raise ValueError.

   Neither kernel tracks the colors of closed circles: a leaf's color count
   is m - dpow for a diagram of m colors.  Components carry one color each
   and a type-1 smoothing keeps every color, while each of the two delta
   branches of a type-2 crossing repaints one color in use as another, so
   removes exactly one.  The engine applies it; see `_kernel_py`. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;

#define MAX_ARCS 64
#define MAX_CROSSINGS 32
#define BIT(i) ((u64)1 << (i))
#define DRAW_MOD (((u64)1 << 56) - 5)

typedef struct {
    int apow, dpow, k;
    long long count;
} Group;

typedef struct {
    int n, n_arcs, max_depth, random_pick;
    int *slots, *colors; /* arenas: row d holds a depth-d node's slots and colors */
    u64 seed;            /* mod 2**64, read when random_pick */
    PyObject *leaves;    /* resolve_leaves: the leaf list */
    /* resolve_sum: the groups in first-leaf order, found through an
       open-addressing table of their indices (-1 = empty slot) whose size,
       a power of two, stays at least twice the group count */
    Group *groups;
    int n_groups, table_size, *table;
} Walk;

static int find(const int *parent, int a)
{
    while (parent[a] != a)
        a = parent[a];
    return a;
}

static unsigned slot_of(const Walk *w, int apow, int dpow, int k)
{
    u64 h = (u64)(unsigned)apow * 0x9E3779B97F4A7C15ULL ^ (u64)(unsigned)dpow * 0xC2B2AE3D27D4EB4FULL ^
            (u64)(unsigned)k * 0x165667B19E3779F9ULL;
    return (unsigned)((h ^ h >> 32) & (u64)(w->table_size - 1));
}

/* Add sign to the count of group (apow, dpow, k). */
static int add_group(Walk *w, int apow, int dpow, int k, int sign)
{
    if (2 * (w->n_groups + 1) > w->table_size) { /* double the table, then re-index */
        int size = w->table_size ? 2 * w->table_size : 64;
        int *table = PyMem_Realloc(w->table, size * sizeof(int));
        if (table)
            w->table = table;
        Group *groups = table ? PyMem_Realloc(w->groups, size / 2 * sizeof(Group)) : NULL;
        if (!groups) {
            PyErr_NoMemory();
            return -1;
        }
        w->groups = groups;
        w->table_size = size;
        memset(w->table, 0xff, size * sizeof(int));
        for (int g = 0; g < w->n_groups; g++) {
            const Group *e = &w->groups[g];
            unsigned i = slot_of(w, e->apow, e->dpow, e->k);
            while (w->table[i] >= 0)
                i = (i + 1) & (w->table_size - 1);
            w->table[i] = g;
        }
    }
    for (unsigned i = slot_of(w, apow, dpow, k);; i = (i + 1) & (w->table_size - 1)) {
        int g = w->table[i];
        if (g < 0) {
            w->groups[w->n_groups] = (Group){apow, dpow, k, sign};
            w->table[i] = w->n_groups++;
            return 0;
        }
        Group *e = &w->groups[g];
        if (e->apow == apow && e->dpow == dpow && e->k == k) {
            e->count += sign;
            return 0;
        }
    }
}

static int leaf(Walk *w, int n, const int *slots, int loop_count, int sign, int apow, int dpow)
{
    int parent[MAX_ARCS], k = loop_count;
    u64 seen = 0; /* the component roots counted so far */
    for (int i = 0; i < w->n_arcs; i++)
        parent[i] = i;
    for (int i = 0; i < 4 * n; i += 4) { /* join the two ends of the under, then the over strand */
        for (int e = 0; e < 2; e++) {
            int a = find(parent, slots[i + e]), b = find(parent, slots[i + e + 2]);
            if (a != b)
                parent[b] = a;
        }
    }
    for (int i = 0; i < 4 * n; i++) {
        int root = find(parent, slots[i]);
        if (!(seen & BIT(root))) {
            seen |= BIT(root);
            k++;
        }
    }

    if (w->leaves) {
        PyObject *item = Py_BuildValue("(iiiii)", k, n, sign, apow, dpow);
        int rc = item ? PyList_Append(w->leaves, item) : -1;
        Py_XDECREF(item);
        return rc;
    }
    return add_group(w, apow, dpow, k, sign);
}

/* Write slots minus crossing x, with the gluing applied, into out_slots, and
   colors, repainted j -> i_col when j >= 0, into out_colors; return the
   number of circles the gluing closes.
   a_pairing glues {s0-s1, s2-s3} (the A-smoothing), else {s0-s3, s1-s2}. */
static int glue(const Walk *w, int n, const int *slots, const int *colors, int x,
                int a_pairing, int j, int i_col, int *out_slots, int *out_colors)
{
    const int *s = slots + 4 * x;
    int p = s[0], q = a_pairing ? s[1] : s[3];
    int r = a_pairing ? s[2] : s[1], t = a_pairing ? s[3] : s[2];
    int m = 4 * (n - 1), closed = 0;

    memcpy(out_slots, slots, 4 * x * sizeof(int));
    memcpy(out_slots + 4 * x, s + 4, (m - 4 * x) * sizeof(int));
    if (p == q) {
        closed++;
    } else {
        for (int i = 0; i < m; i++)
            out_slots[i] = out_slots[i] == q ? p : out_slots[i];
        r = r == q ? p : r;
        t = t == q ? p : t;
    }
    if (r == t)
        closed++;
    else
        for (int i = 0; i < m; i++)
            out_slots[i] = out_slots[i] == t ? r : out_slots[i];

    for (int a = 0; a < w->n_arcs; a++)
        out_colors[a] = colors[a] == j ? i_col : colors[a];
    return closed;
}

/* The seeded draw of a state: its slots relabelled by first appearance, read
   as a big-endian integer mod DRAW_MOD and XORed into the seed, then one
   splitmix64 step; as `_kernel_py._draw`. */
static u64 draw(const Walk *w, int n, const int *slots)
{
    int label[MAX_ARCS], next = 0;
    u64 h = 0;
    memset(label, 0xff, sizeof label);
    for (int i = 0; i < 4 * n; i++) {
        if (label[slots[i]] < 0)
            label[slots[i]] = next++;
        h = (h << 8 | (u64)label[slots[i]]) % DRAW_MOD;
    }
    u64 z = (w->seed ^ h) + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static int expand(Walk *w, int depth, int n, const int *slots, const int *colors,
                  int loop_count, int sign, int apow, int dpow)
{
    int x = -1, first1 = -1, n_illegal = 0, cand[MAX_CROSSINGS];

    for (int i = 0; i < n; i++) {
        int cu = colors[slots[4 * i]], co = colors[slots[4 * i + 1]];
        if (w->random_pick) {
            if (co <= cu)
                cand[n_illegal++] = i;
        } else if (co == cu && first1 < 0) {
            first1 = i;
        } else if (co < cu) {
            x = i;
            break;
        }
    }
    if (n_illegal)
        x = cand[draw(w, n, slots) % (u64)n_illegal];
    else if (x < 0)
        x = first1;
    if (x < 0)
        return leaf(w, n, slots, loop_count, sign, apow, dpow);

    /* The bound holds while the two ends of each strand share a color, as
       in every diagram; other slot structures may run past it. */
    if (depth >= w->max_depth) {
        PyErr_SetString(PyExc_ValueError, "resolution deeper than the kernel's bound");
        return -1;
    }
    int *c_slots = w->slots + (depth + 1) * 4 * w->n;
    int *c_colors = w->colors + (depth + 1) * w->n_arcs;
    const int *s = slots + 4 * x;
    int x_type2 = colors[s[1]] < colors[s[0]];
    int j = x_type2 ? colors[s[0]] : -1, i_col = x_type2 ? colors[s[1]] : -1;
    if (x_type2) { /* children: two (the flipped crossing), zero, one */
        memcpy(c_slots, slots, 4 * n * sizeof(int));
        for (int a = 0; a < 4; a++)
            c_slots[4 * x + a] = s[(a + 1) % 4];
        memcpy(c_colors, colors, w->n_arcs * sizeof(int));
        if (expand(w, depth + 1, n, c_slots, c_colors, loop_count, -sign, apow, dpow) < 0)
            return -1;
    }
    for (int a_pairing = 1; a_pairing >= 0; a_pairing--) {
        int c_loops = loop_count + glue(w, n, slots, colors, x, a_pairing, j, i_col, c_slots, c_colors);
        int c_apow = x_type2 ? apow : a_pairing ? apow + 1 : apow - 1;
        if (expand(w, depth + 1, n - 1, c_slots, c_colors, c_loops, sign, c_apow, dpow + x_type2) < 0)
            return -1;
    }
    return 0;
}

/* Copy the ints of a sequence, each in [0, bound), to out. */
static int read_ints(PyObject *seq, int bound, const char *what, int *out)
{
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (v == -1 && PyErr_Occurred())
            return -1;
        if (v < 0 || v >= bound) {
            PyErr_Format(PyExc_ValueError, "%s %ld out of range [0, %d)", what, v, bound);
            return -1;
        }
        out[i] = (int)v;
    }
    return 0;
}

static PyObject *run(PyObject *args, PyObject *kwargs, int summing)
{
    static char *kwlist[] = {"slots", "colors", "loops", "seed", NULL};
    PyObject *seq[3], *seed = NULL, *slots = NULL, *colors = NULL, *result = NULL;
    Walk w = {0};

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO|O!", kwlist, &seq[0], &seq[1],
                                     &seq[2], &PyLong_Type, &seed))
        return NULL;
    /* any non-negative seed, taken mod 2**64 as in _kernel_py */
    int overflow = 0;
    long long s = seed ? PyLong_AsLongLongAndOverflow(seed, &overflow) : -1;
    if (s == -1 && PyErr_Occurred())
        return NULL;
    w.random_pick = overflow > 0 || (overflow == 0 && s >= 0);
    w.seed = seed ? PyLong_AsUnsignedLongLongMask(seed) : 0;
    if (!(slots = PySequence_Fast(seq[0], "slots must be a sequence")) ||
        !(colors = PySequence_Fast(seq[1], "colors must be a sequence")))
        goto done;
    Py_ssize_t n_slots = PySequence_Fast_GET_SIZE(slots), n_arcs = PySequence_Fast_GET_SIZE(colors);
    Py_ssize_t loop_count = PySequence_Size(seq[2]); /* loops only count */
    if (loop_count < 0)
        goto done;
    if (n_slots % 4 || n_slots > 4 * MAX_CROSSINGS || n_arcs > MAX_ARCS || loop_count > INT_MAX / 2) {
        PyErr_Format(PyExc_ValueError, "kernel takes 4 slots per crossing, at most %d "
                     "crossings, %d arcs and %d loops", MAX_CROSSINGS, MAX_ARCS, INT_MAX / 2);
        goto done;
    }
    w.n = (int)(n_slots / 4);
    w.n_arcs = (int)n_arcs;
    /* Longest smoothing chain: complexity decreases strictly in
       lexicographic order, so a path visits each (total, illegal) pair at
       most once with illegal <= total <= n. */
    w.max_depth = (w.n + 1) * (w.n + 2) / 2 + 2;
    if (!(w.slots = PyMem_Malloc((w.max_depth + 1) * (4 * w.n + w.n_arcs) * sizeof(int)))) {
        PyErr_NoMemory();
        goto done;
    }
    w.colors = w.slots + (w.max_depth + 1) * 4 * w.n;
    if (read_ints(slots, w.n_arcs, "slot", w.slots) < 0 ||
        read_ints(colors, INT_MAX, "color", w.colors) < 0 ||
        !(summing || (w.leaves = PyList_New(0))) ||
        expand(&w, 0, w.n, w.slots, w.colors, (int)loop_count, 1, 0, 0) < 0)
        goto done;
    if (!summing) {
        result = w.leaves;
        w.leaves = NULL;
        goto done;
    }
    result = PyDict_New(); /* the sums without their zeros */
    for (int g = 0; result && g < w.n_groups; g++) {
        const Group *e = &w.groups[g];
        if (!e->count)
            continue;
        PyObject *key = Py_BuildValue("(iii)", e->apow, e->dpow, e->k);
        PyObject *count = key ? PyLong_FromLongLong(e->count) : NULL;
        if (!count || PyDict_SetItem(result, key, count) < 0)
            Py_CLEAR(result);
        Py_XDECREF(key);
        Py_XDECREF(count);
    }
done:
    Py_XDECREF(slots);
    Py_XDECREF(colors);
    Py_XDECREF(w.leaves);
    PyMem_Free(w.slots);
    PyMem_Free(w.groups);
    PyMem_Free(w.table);
    return result;
}

static PyObject *resolve_sum(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    return run(args, kwargs, 1);
}

static PyObject *resolve_leaves(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    return run(args, kwargs, 0);
}

static PyMethodDef methods[] = {
    {"resolve_sum", (PyCFunction)(void (*)(void))resolve_sum, METH_VARARGS | METH_KEYWORDS,
     "resolve_sum(slots, colors, loops, seed=-1)\n--\n\nResolve completely; return "
     "{(apow, dpow, k): signed leaf count}."},
    {"resolve_leaves", (PyCFunction)(void (*)(void))resolve_leaves, METH_VARARGS | METH_KEYWORDS,
     "resolve_leaves(slots, colors, loops, seed=-1)\n--\n\nResolve completely; return "
     "[(k, crossings_left, sign, apow, dpow)] in depth-first leaf order."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernel_c", "Compiled twin of tiedbracket._kernel_py.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__kernel_c(void)
{
    return PyModule_Create(&module);
}
