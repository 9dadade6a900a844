/* Compiled resolution kernel, written against the CPython C API.

   Twin of `_kernel_py.resolve_sum`: the same two-pass memo walk
   (`_memo_walk`) over the same keys (`_canonical`, six bytes per crossing),
   the same seeded picks and identical results.  Counts are checked 128-bit
   integers that raise OverflowError rather than wrap.  Byte labels bound
   the arcs (MAX_KEY_ARCS); arguments past them, or not shaped like a
   diagram, raise ValueError.  Leaves carry no colors: the engine counts
   them as m - dpow for a diagram of m colors; see `_kernel_py`.

   A state is its key in both kernels.  The twins of the functions below:
   intern <-> `_kernel_py._canonical`, components <-> `_components`,
   memo_walk <-> `_memo_walk`. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef uint8_t u8;
typedef uint64_t u64;
typedef __int128 i128;

#define MAX_KEY_ARCS 255
#define DRAW_MOD (((u64)1 << 56) - 5)

typedef struct {
    int apow, dpow, k;
    unsigned hash;
    i128 count;
} Group;

/* Groups in first-add order, found through a table of their indices. */
typedef struct {
    Group *groups;
    Py_ssize_t n_groups, cap, table_size;
    int *table;
} Hist;

typedef struct {
    int child, sign, apow, dpow, closed;
} Edge;

typedef struct {
    Py_ssize_t key; /* its key is keys[key:key + 6n] */
    int n;
    unsigned hash;
    int n_edges; /* -1 until expanded */
    int link; /* first pass: the state it came from; once numbered, the next in reverse post-order */
    Edge edges[3];
    Hist hist; /* second pass: (closed, apow, dpow) -> count of its paths from the root */
} State;

typedef struct {
    int random_pick;
    u64 seed; /* mod 2**64, read when random_pick */
    u8 *keys; /* the states' keys, back to back */
    State *states;
    int *table; /* of the states by key */
    Py_ssize_t n_keys, n_states, cap_keys, cap_states, table_size;
    Hist out; /* (apow, dpow, k) -> signed leaf count */
} Walk;

/* Grow the buffer *buf of *cap items of size bytes to hold need: double it, to 8 at
   least.  MemoryError past half the address space, so that no size overflows. */
static int reserve(void *buf, Py_ssize_t *cap, Py_ssize_t need, size_t size)
{
    if (need <= *cap)
        return 0;
    Py_ssize_t cap2 = 2 * *cap >= need ? 2 * *cap : need > 8 ? need : 8;
    void *p = need > PY_SSIZE_T_MAX / 2 / (Py_ssize_t)size ? NULL
              : PyMem_Realloc(*(void **)buf, cap2 * size);
    if (!p)
        return PyErr_NoMemory(), -1;
    *(void **)buf = p;
    *cap = cap2;
    return 0;
}

/* Make room for one more of the n entries of a table of their indices (-1 = empty): at
   half full, double its size, a power of two from 8, and re-index the entries by their
   hashes, which lie stride bytes apart from *hash.  Lookups probe linearly.  The
   indices are ints: MemoryError at INT_MAX entries. */
static int regrow(int **table, Py_ssize_t *size, Py_ssize_t n, const unsigned *hash, size_t stride)
{
    if (2 * (n + 1) <= *size)
        return 0;
    if (n >= INT_MAX)
        return PyErr_NoMemory(), -1;
    if (reserve(table, size, *size ? 2 * *size : 8, sizeof(int)) < 0)
        return -1;
    memset(*table, 0xff, *size * sizeof(int));
    for (Py_ssize_t e = 0; e < n; e++) {
        unsigned i = *(const unsigned *)((const char *)hash + e * stride) & (*size - 1);
        while ((*table)[i] >= 0)
            i = (i + 1) & (*size - 1);
        (*table)[i] = (int)e;
    }
    return 0;
}

/* Add sign * count to the count of group (apow, dpow, k). */
static int add_group(Hist *h, int apow, int dpow, int k, i128 count, int sign)
{
    u64 x = (u64)(unsigned)apow * 0x9E3779B97F4A7C15ULL ^ (u64)(unsigned)dpow * 0xC2B2AE3D27D4EB4FULL ^
            (u64)(unsigned)k * 0x165667B19E3779F9ULL;
    unsigned hash = (unsigned)(x ^ x >> 32);
    if (reserve(&h->groups, &h->cap, h->n_groups + 1, sizeof(Group)) < 0 ||
        regrow(&h->table, &h->table_size, h->n_groups, &h->groups->hash, sizeof(Group)) < 0)
        return -1;
    if (sign < 0 && __builtin_sub_overflow((i128)0, count, &count))
        goto overflow;
    for (unsigned i = hash & (h->table_size - 1);; i = (i + 1) & (h->table_size - 1)) {
        int g = h->table[i];
        if (g < 0) {
            h->groups[h->n_groups] = (Group){apow, dpow, k, hash, count};
            h->table[i] = (int)h->n_groups++;
            return 0;
        }
        Group *e = &h->groups[g];
        if (e->apow == apow && e->dpow == dpow && e->k == k) {
            if (__builtin_add_overflow(e->count, count, &e->count))
                goto overflow;
            return 0;
        }
    }
overflow:
    PyErr_SetString(PyExc_OverflowError, "a leaf count does not fit the kernel's 128 bits");
    return -1;
}

static void free_hist(Hist *h)
{
    PyMem_Free(h->groups);
    PyMem_Free(h->table);
    *h = (Hist){0};
}

/* The crossing of a key to smooth, -1 at a leaf, as `_kernel_py._pick`; *type2
   tells whether it has two colors.  A seed draws among the illegal crossings. */
static int pick(const Walk *w, const u8 *s, int n, int *type2)
{
    const u8 *colors = s + 4 * n;
    int x = -1, n_illegal = 0;
    for (int i = 0; i < n; i++) {
        int cu = colors[s[4 * i]], co = colors[s[4 * i + 1]];
        if (w->random_pick) {
            n_illegal += co <= cu;
        } else if (co < cu || (co == cu && x < 0)) {
            x = i;
            if (co < cu) /* the first two-color crossing, else the first one-color one */
                break;
        }
    }
    if (n_illegal) { /* the draw of `_kernel_py._draw`: the slots as a big-endian integer
                        mod DRAW_MOD, XORed into the seed, then one splitmix64 step */
        u64 z = 0;
        for (int i = 0; i < 4 * n; i++)
            z = (z << 8 | s[i]) % DRAW_MOD;
        z = (w->seed ^ z) + 0x9E3779B97F4A7C15ULL;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        u64 d = (z ^ (z >> 31)) % (u64)n_illegal; /* the pick: the d-th illegal crossing */
        for (x = 0; colors[s[4 * x + 1]] > colors[s[4 * x]] || d--; x++)
            ;
    }
    *type2 = x >= 0 && colors[s[4 * x + 1]] < colors[s[4 * x]];
    return x;
}

/* The components of a leaf's 2n arcs: the two ends of each strand join. */
static int components(const u8 *s, int n)
{
    u8 parent[MAX_KEY_ARCS];
    int k = 2 * n;
    for (int a = 0; a < 2 * n; a++)
        parent[a] = (u8)a;
    for (int i = 0; i < 4 * n; i += i % 4 ? 3 : 1) { /* the under, then the over strand */
        int a = s[i], b = s[i + 2];
        while (parent[a] != a)
            a = parent[a];
        while (parent[b] != b)
            b = parent[b];
        if (a != b) {
            parent[b] = (u8)a;
            k--;
        }
    }
    return k;
}

/* Write slots minus crossing x, with the gluing applied, to out; return
   the number of circles the gluing closes.  a_pairing glues {s0-s1, s2-s3}
   (the A-smoothing), else {s0-s3, s1-s2}; a glued arc takes the other's label. */
static int glue(const u8 *slots, int n, int x, int a_pairing, u8 *out)
{
    const u8 *s = slots + 4 * x;
    u8 end[4] = {s[0], s[a_pairing ? 1 : 3], s[a_pairing ? 2 : 1], s[a_pairing ? 3 : 2]};
    int m = 4 * (n - 1), closed = 0;

    memcpy(out, slots, 4 * x);
    memcpy(out + 4 * x, s + 4, m - 4 * x);
    for (int e = 0; e < 4; e += 2) { /* join end[e + 1] to end[e], or close a circle */
        u8 p = end[e], q = end[e + 1];
        closed += p == q;
        for (int i = 0; i < m; i++)
            out[i] = out[i] == q ? p : out[i];
        end[3] = end[3] == q ? p : end[3];
        end[2] = end[2] == q ? p : end[2];
    }
    return closed;
}

/* The id of the state of m slots and their colors by label, color j
   repainted as i, keyed as `_kernel_py._canonical` at the end of the keys,
   which the caller makes room for; a new key is a new, unexpanded state. */
static int intern(Walk *w, const u8 *slots, int m, const u8 *colors, int j, int i)
{
    u8 label[256], *k = w->keys + w->n_keys;
    unsigned hash = 0;
    memset(label, 0xff, sizeof label); /* canonical labels stay below 254 */
    for (int a = 0, next = 0; a < m; a++) { /* branch-free: first appearances are unpredictable */
        int l = label[slots[a]], fresh = l == 0xff, c = colors[slots[a]] == j ? i : colors[slots[a]];
        l = fresh ? next : l;
        next += fresh;
        label[slots[a]] = k[a] = (u8)l;
        k[m + l] = (u8)c;
        hash = hash * 31 + (unsigned)(l | c << 8); /* a function of the key: c is l's color */
    }
    hash = (hash ^ hash >> 15) * 0x2C1B3C6Du;
    if (reserve(&w->states, &w->cap_states, w->n_states + 1, sizeof(State)) < 0 ||
        regrow(&w->table, &w->table_size, w->n_states, &w->states->hash, sizeof(State)) < 0)
        return -1;
    for (unsigned a = hash & (w->table_size - 1);; a = (a + 1) & (w->table_size - 1)) {
        int id = w->table[a];
        if (id < 0) {
            w->states[w->n_states] = (State){w->n_keys, m / 4, hash, -1, -1, {{0}}, {0}};
            w->n_keys += m + m / 2;
            return w->table[a] = (int)w->n_states++;
        }
        const State *st = &w->states[id];
        if (st->hash == hash && st->n == m / 4 && !memcmp(w->keys + st->key, k, m + m / 2))
            return id;
    }
}

/* Pick the crossing of state id and add its edges in the kernels' order: two (the
   flipped crossing), zero, one; or A, 1/A; or a leaf's one edge, to the output (child
   -1), which closes its k components.  The delta branches repaint color j as i. */
static int expand(Walk *w, int id)
{
    int n = w->states[id].n, type2;
    if (id % 4096 == 0 && PyErr_CheckSignals() < 0) /* let a runaway walk be interrupted */
        return -1;
    if (reserve(&w->keys, &w->cap_keys, w->n_keys + 18 * n, 1) < 0) /* room for three children */
        return -1;
    const u8 *s = w->keys + w->states[id].key, *colors = s + 4 * n;
    int x = pick(w, s, n, &type2);
    u8 out[2 * MAX_KEY_ARCS];

    if (x < 0) {
        w->states[id].edges[0] = (Edge){-1, 1, 0, 0, components(s, n)};
        w->states[id].n_edges = 1;
        return 0;
    }
    for (int c = type2 ? 0 : 1; c < 3; c++) {
        int closed = c ? glue(s, n, x, c == 1, out) : 0;
        for (int a = 0; c == 0 && a < 4 * n; a++) /* the flipped crossing, turned by a slot */
            out[a] = a / 4 == x ? s[4 * x + (a + 1) % 4] : s[a];
        int j = type2 && c ? colors[s[4 * x]] : -1;
        int child = intern(w, out, c ? 4 * n - 4 : 4 * n, colors, j, colors[s[4 * x + 1]]);
        if (child < 0)
            return -1;
        w->states[id].edges[c - !type2] =
            (Edge){child, c ? 1 : -1, type2 ? 0 : 3 - 2 * c, j >= 0, closed};
    }
    w->states[id].n_edges = type2 ? 3 : 2;
    return 0;
}

/* As `_kernel_py._memo_walk`.  The first pass expands each state once, depth-first,
   and numbers the states in post-order.  The second visits them in reverse post-order,
   a topological order with the root first: each pushes its paths, shifted by each
   edge, into its children or, at a leaf, into the output, and frees them. */
static int memo_walk(Walk *w, int root)
{
    for (int id = root, numbered = -1; id >= 0;) {
        if (w->states[id].n_edges < 0 && expand(w, id) < 0) /* the first visit */
            return -1;
        State *st = &w->states[id];
        /* down to an unexpanded child (no state is its own descendant, so the others are
           numbered); once there is none, number this state and go back up */
        int c = 0;
        while (c < st->n_edges && (st->edges[c].child < 0 || w->states[st->edges[c].child].n_edges >= 0))
            c++;
        if (c < st->n_edges) {
            w->states[st->edges[c].child].link = id;
            id = st->edges[c].child;
        } else {
            int up = st->link;
            st->link = numbered;
            numbered = id;
            id = up;
        }
    }
    if (add_group(&w->states[root].hist, 0, 0, 0, 1, 1) < 0)
        return -1;
    for (State *st = &w->states[root]; st; st = st->link < 0 ? NULL : &w->states[st->link]) {
        for (int c = 0; c < st->n_edges; c++) {
            const Edge *e = &st->edges[c];
            Hist *to = e->child < 0 ? &w->out : &w->states[e->child].hist;
            for (Py_ssize_t g = 0; g < st->hist.n_groups; g++) {
                const Group *p = &st->hist.groups[g];
                if (p->count && add_group(to, p->apow + e->apow, p->dpow + e->dpow, p->k + e->closed,
                                          p->count, e->sign) < 0)
                    return -1;
            }
        }
        free_hist(&st->hist);
    }
    return 0;
}

static PyObject *resolve_sum(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"slots", "colors", "loops", "seed", NULL};
    PyObject *seq[3], *seed = NULL, *slots = NULL, *colors = NULL, *result = NULL;
    Walk w = {0};
    int uses[256] = {0};

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
    /* as bytes(): an item outside [0, 256) raises ValueError */
    if (!(slots = PyBytes_FromObject(seq[0])) || !(colors = PyBytes_FromObject(seq[1])))
        goto done;
    const u8 *in = (const u8 *)PyBytes_AS_STRING(slots);
    Py_ssize_t n_slots = PyBytes_GET_SIZE(slots), n_arcs = PyBytes_GET_SIZE(colors);
    Py_ssize_t loop_count = PySequence_Size(seq[2]); /* loops only count */
    if (loop_count < 0)
        goto done;
    int bad = n_slots % 4 || n_arcs > MAX_KEY_ARCS; /* with two slots an arc, 127 crossings */
    for (Py_ssize_t i = 0; i < n_slots && !bad; i++)
        bad = ++uses[in[i]] > 2;
    for (int a = 0; a < 256; a++)
        bad |= uses[a] && (uses[a] != 2 || a >= n_arcs);
    if (bad || loop_count > INT_MAX / 2) {
        PyErr_Format(PyExc_ValueError, "kernel takes 4 slots per crossing, each arc of the colors "
                     "in two slots or none, at most %d crossings, %d arcs and %d loops",
                     MAX_KEY_ARCS / 2, MAX_KEY_ARCS, INT_MAX / 2);
        goto done;
    }
    int root = reserve(&w.keys, &w.cap_keys, n_slots * 3 / 2 + 1, 1) < 0 ? -1 :
               intern(&w, in, (int)n_slots, (const u8 *)PyBytes_AS_STRING(colors), -1, 0);
    if (root < 0 || memo_walk(&w, root) < 0 || !(result = PyDict_New()))
        goto done;
    for (Py_ssize_t g = 0; result && g < w.out.n_groups; g++) { /* the sums without their zeros */
        const Group *e = &w.out.groups[g];
        if (!e->count)
            continue;
        PyObject *tuple = Py_BuildValue("(iii)", e->apow, e->dpow, e->k + (int)loop_count);
        PyObject *count = e->count == (long long)e->count ? PyLong_FromLongLong((long long)e->count)
                          : _PyLong_FromByteArray((const u8 *)&e->count, 16, PY_LITTLE_ENDIAN, 1);
        if (!tuple || !count || PyDict_SetItem(result, tuple, count) < 0)
            Py_CLEAR(result);
        Py_XDECREF(tuple);
        Py_XDECREF(count);
    }
done:
    Py_XDECREF(slots);
    Py_XDECREF(colors);
    for (Py_ssize_t i = 0; i < w.n_states; i++)
        free_hist(&w.states[i].hist);
    PyMem_Free(w.keys);
    PyMem_Free(w.states);
    PyMem_Free(w.table);
    free_hist(&w.out);
    return result;
}

static PyMethodDef methods[] = {
    {"resolve_sum", (PyCFunction)(void (*)(void))resolve_sum, METH_VARARGS | METH_KEYWORDS,
     "resolve_sum(slots, colors, loops, seed=-1)\n--\n\nResolve completely; return "
     "{(apow, dpow, k): signed leaf count}."},
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
