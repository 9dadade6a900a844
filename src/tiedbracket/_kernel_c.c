/* Compiled resolution kernel, written against the CPython C API.

   Twin of `_kernel_py.resolve_sum`: the same one-pass memo walk in falling
   rank (`_memo_walk`, `_rank`) from the same keys (for each slot its
   partner's crossing, then its partner's slot number, then each crossing's
   under-strand and over-strand color, ten bytes per crossing), the same
   seeded picks and identical results.  Counts are checked 128-bit integers
   that raise OverflowError rather than wrap.  Arguments that are no such
   key, or past MAX_CROSSINGS, raise the TypeError or ValueError of
   `_kernel_py._check`.  Leaves carry no colors and no free loops: the engine
   counts the colors as m - dpow for a diagram of m colors and adds the loops
   to k; see `_kernel_py`.

   A state is its key in both kernels.  The twins of the functions below:
   the check in resolve_sum <-> `_kernel_py._check`; rank <-> `_rank`,
   which ranks the root and the delta children only, as the other children
   take their rank from the branch, as the drop of `_expander`'s children;
   pick <-> the pick of `_expander`; expand, which builds each child (flip,
   glue), interns its key with its rank and pushes the state's paths into
   it, <-> the smoothing of `_expander`; components
   <-> `_components`; memo_walk and push <-> `_memo_walk`, histograms
   shared by a child's first push included.  A Hist counts its owners, the
   states that hold it, and is freed with the last; a state adds to it only
   while it is the one owner, and copies it first otherwise.  Against
   copying every push, sharing took the walks of the 300 `bracket-batch`
   braid closures from 44.0 to 32.9 ms and of 1,200 seeded walks of the 8
   `order-check` braid closures from 948 to 863 ms (medians of 18 rounds on
   one CPU of a 2-core Linux VM), and the tracemalloc peak on
   random_diagram(1, 20, 2) from 13.2 to 11.8 MB. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef uint8_t u8;
typedef uint64_t u64;
typedef __int128 i128;

#define MAX_CROSSINGS 127 /* crossing indices are bytes, and rank counts illegal ones below 128 */

/* CRC-32 (reflected, polynomial 0xEDB88320) of each byte value, as binascii.crc32 reads
   a byte; filled by crc_init. */
static uint32_t crc_table[256];

static void crc_init(void)
{
    for (uint32_t b = 0; b < 256; b++) {
        uint32_t c = b;
        for (int i = 0; i < 8; i++)
            c = c & 1 ? 0xEDB88320u ^ c >> 1 : c >> 1;
        crc_table[b] = c;
    }
}

typedef struct {
    int apow, dpow, k;
    unsigned hash;
    i128 count;
} Group;

/* Groups in first-add order, found through a table of their indices; owned by the
   states that hold it, and written only while one state does. */
typedef struct {
    Group *groups;
    Py_ssize_t n_groups, cap, table_size;
    int *table;
    int owners;
} Hist;

typedef struct {
    Py_ssize_t key; /* its key is keys[key:key + 10n] */
    int n;
    unsigned hash;
    int next; /* the next state of its rank, -1 at the end */
    /* (closed, apow, dpow) -> count of its paths from the root, until expanded: the groups of
       hist (NULL before the first push) shifted by (k, apow, dpow), each count times sign */
    Hist *hist;
    int k, apow, dpow, sign;
} State;

typedef struct {
    int random_pick;
    u64 mixed; /* the seed mod 2**64 after one splitmix64 step, read when random_pick */
    u8 *keys; /* the states' keys, back to back */
    State *states;
    int *table; /* of the states by key */
    int *rank; /* by rank, up to the root's: the first state of that rank, -1 for none */
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

/* Drop one owner of h, and free it with its last one. */
static void release(Hist *h)
{
    if (h && --h->owners == 0) {
        free_hist(h);
        PyMem_Free(h);
    }
}

/* A histogram of one owner with the groups of h (none for NULL), or NULL with MemoryError. */
static Hist *new_hist(const Hist *h)
{
    Hist *c = PyMem_Calloc(1, sizeof(Hist));
    if (!c)
        return PyErr_NoMemory(), NULL;
    c->owners = 1;
    if (h && h->n_groups) {
        if (reserve(&c->groups, &c->cap, h->n_groups, sizeof(Group)) < 0 ||
            reserve(&c->table, &c->table_size, h->table_size, sizeof(int)) < 0)
            return release(c), NULL;
        memcpy(c->groups, h->groups, h->n_groups * sizeof(Group));
        memcpy(c->table, h->table, h->table_size * sizeof(int));
        c->n_groups = h->n_groups;
    }
    return c;
}

/* The complexity of a key of n crossings, (crossings, illegal crossings), as one int, as
   `_kernel_py._rank`. */
static int rank(const u8 *s, int n)
{
    int illegal = 0;
    for (int c = 0; c < n; c++)
        illegal += s[9 * n + c] <= s[8 * n + c];
    return 128 * n + illegal;
}

/* The crossing of a key to smooth, -1 at a leaf, as `_kernel_py._expander` picks; *type2
   tells whether it has two colors.  A seed draws among the illegal crossings. */
static int pick(const Walk *w, const u8 *s, int n, int *type2)
{
    const u8 *under = s + 8 * n, *over = under + n;
    int x = -1, n_illegal = 0;
    for (int i = 0; i < n; i++) {
        if (w->random_pick) {
            n_illegal += over[i] <= under[i];
        } else if (over[i] < under[i] || (over[i] == under[i] && x < 0)) {
            x = i;
            if (over[i] < under[i]) /* the first two-color crossing, else the first one-color one */
                break;
        }
    }
    if (n_illegal) { /* the draw of `_kernel_py._expander`: the CRC-32 of the partner bytes,
                        XORed into the mixed seed and multiplied by 0x9E3779B97F4A7C15 */
        uint32_t h = 0xFFFFFFFFu;
        for (int i = 0; i < 8 * n; i++)
            h = crc_table[(h ^ s[i]) & 0xff] ^ h >> 8;
        u64 z = ((u64)~h ^ w->mixed) * 0x9E3779B97F4A7C15ULL;
        u64 d = (z >> 32) * (u64)n_illegal >> 32; /* the pick: the d-th illegal crossing */
        for (x = 0; over[x] > under[x] || d--; x++)
            ;
    }
    *type2 = x >= 0 && over[x] < under[x];
    return x;
}

/* The components of a leaf of n crossings: each walks from a slot along its strand to
   the slot across and on to that slot's partner, until it closes. */
static int components(const u8 *s, int n)
{
    u8 seen[4 * MAX_CROSSINGS] = {0};
    int m = 4 * n, k = 0;
    for (int a = 0; a < m; a++) {
        k += !seen[a];
        for (int t = a; !seen[t]; t = 4 * s[t] + s[m + t]) {
            seen[t] = seen[t ^ 2] = 1;
            t ^= 2;
        }
    }
    return k;
}

/* Write to out the key of n crossings with crossing x turned by one slot and its two
   colors swapped: the flipped crossing of a type-2 smoothing. */
static void flip(const u8 *s, int n, int x, u8 *out)
{
    int m = 4 * n;
    memcpy(out, s, 10 * n);
    for (int k = 0; k < 4; k++) { /* new slot k is old slot k + 1; old slot j of x, new j - 1 */
        int o = 4 * x + (k + 1) % 4, t = 4 * s[o] + s[m + o];
        if (t / 4 == x)
            t = 4 * x + ((t - 1) & 3);
        else
            out[m + t] = (u8)k;
        out[4 * x + k] = (u8)(t / 4);
        out[m + 4 * x + k] = (u8)(t % 4);
    }
    out[2 * m + x] = s[2 * m + n + x];
    out[2 * m + n + x] = s[2 * m + x];
}

/* Write to out the key of smoothing crossing x of the key s of n crossings, color j
   repainted as i (j = -1: none); return the number of circles it closes.  a_pairing
   glues {s0-s1, s2-s3} (the A-smoothing), else {s0-s3, s1-s2}: the partners of two
   glued slots become each other's, unless they are each other's, which closes a
   circle.  Then x's slots go and the crossing indices above x drop by one. */
static int glue(const u8 *s, int n, int x, int a_pairing, int j, int i, u8 *out)
{
    static const int pairs[2][4] = {{0, 3, 1, 2}, {0, 1, 2, 3}};
    u8 p[8 * MAX_CROSSINGS];
    int m = 4 * n, closed = 0;
    memcpy(p, s, 2 * m);
    for (int e = 0; e < 4; e += 2) {
        int a = 4 * x + pairs[a_pairing][e], b = 4 * x + pairs[a_pairing][e + 1];
        int ta = 4 * p[a] + p[m + a], tb = 4 * p[b] + p[m + b];
        if (ta == b) {
            closed++;
            continue;
        }
        p[ta] = p[b], p[m + ta] = p[m + b];
        p[tb] = p[a], p[m + tb] = p[m + a];
    }
    for (int a = 0; a < m; a++) /* the partners' crossings, moved down past x */
        if (a < 4 * x || a >= 4 * x + 4)
            *out++ = (u8)(p[a] - (p[a] > x));
    memcpy(out, p + m, 4 * x); /* their slots */
    memcpy(out + 4 * x, p + m + 4 * x + 4, m - 4 * x - 4);
    out += m - 4;
    for (int c = 0; c < 2 * n; c++) /* the under colors, then the over colors */
        if (c != x && c != n + x)
            *out++ = (u8)(s[2 * m + c] == j ? i : s[2 * m + c]);
    return closed;
}

/* The id of the state of n crossings and rank r whose key the caller wrote at the end of
   the keys, after making room for it; a new key is a new state, with no paths yet, first
   in the list of its rank. */
static int intern(Walk *w, int n, int r)
{
    const u8 *k = w->keys + w->n_keys;
    u64 h = (u64)n, word;
    for (int a = 0; a < 10 * n; a += 8) { /* eight bytes at a time, the last word zero-padded */
        word = 0;
        memcpy(&word, k + a, 10 * n - a < 8 ? 10 * n - a : 8);
        h = (h ^ word) * 0x9E3779B97F4A7C15ULL;
        h ^= h >> 29;
    }
    unsigned hash = (unsigned)(h ^ h >> 32);
    if (reserve(&w->states, &w->cap_states, w->n_states + 1, sizeof(State)) < 0 ||
        regrow(&w->table, &w->table_size, w->n_states, &w->states->hash, sizeof(State)) < 0)
        return -1;
    for (unsigned a = hash & (w->table_size - 1);; a = (a + 1) & (w->table_size - 1)) {
        int id = w->table[a];
        if (id < 0) {
            w->states[w->n_states] = (State){w->n_keys, n, hash, w->rank[r], NULL, 0, 0, 0, 0};
            w->rank[r] = (int)w->n_states;
            w->n_keys += 10 * n;
            return w->table[a] = (int)w->n_states++;
        }
        const State *st = &w->states[id];
        if (st->hash == hash && st->n == n && !memcmp(w->keys + st->key, k, 10 * n))
            return id;
    }
}

/* Push the paths of state id, shifted by the edge's weight sign * A^apow * delta^dpow and
   the circles it closes, into state to, or into the output for to = -1.  A state's first
   push shares id's histogram, with the shift and sign composed; a later one copies a
   shared histogram before it adds to it, in the frame of its pending shift and sign. */
static int push(Walk *w, int id, int to, int sign, int apow, int dpow, int closed)
{
    const State *p = &w->states[id];
    Hist *h = &w->out;
    sign *= p->sign, apow += p->apow, dpow += p->dpow, closed += p->k;
    if (to >= 0) {
        State *c = &w->states[to];
        if (!c->hist) {
            c->hist = p->hist;
            c->hist->owners++;
            c->k = closed, c->apow = apow, c->dpow = dpow, c->sign = sign;
            return 0;
        }
        if (c->hist->owners > 1) {
            Hist *own = new_hist(c->hist);
            if (!own)
                return -1;
            release(c->hist);
            c->hist = own;
        }
        h = c->hist;
        sign *= c->sign, apow -= c->apow, dpow -= c->dpow, closed -= c->k;
    }
    for (Py_ssize_t g = 0; g < p->hist->n_groups; g++) {
        const Group *e = &p->hist->groups[g];
        if (e->count && add_group(h, e->apow + apow, e->dpow + dpow, e->k + closed, e->count, sign) < 0)
            return -1;
    }
    return 0;
}

/* Pick the crossing of state id, of rank r, and push its paths into its children, each
   interned as it is built, in the kernels' order: two (the flipped crossing), zero, one;
   or A, 1/A; or, at a leaf, into the output, closing its k components.  The delta branches
   repaint color j as i.  A child's rank is r less the drop of `_kernel_py._expander`: 1
   for the flip, 129 for a type-1 smoothing; only a delta child, whose repaint may change
   which crossings are illegal, is ranked anew. */
static int expand(Walk *w, int id, int r)
{
    int n = w->states[id].n, type2;
    if (id % 4096 == 0 && PyErr_CheckSignals() < 0) /* let a runaway walk be interrupted */
        return -1;
    if (reserve(&w->keys, &w->cap_keys, w->n_keys + 30 * n, 1) < 0) /* room for three children */
        return -1;
    const u8 *s = w->keys + w->states[id].key;
    int x = pick(w, s, n, &type2);

    if (x < 0)
        return push(w, id, -1, 1, 0, 0, components(s, n));
    for (int c = type2 ? 0 : 1; c < 3; c++) {
        u8 *out = w->keys + w->n_keys;
        int closed = 0, r_child = r - 1;
        if (c) { /* the delta branches repaint the under strand's color as the over strand's */
            closed = glue(s, n, x, c == 1, type2 ? s[8 * n + x] : -1, s[9 * n + x], out);
            r_child = type2 ? rank(out, n - 1) : r - 129;
        } else
            flip(s, n, x, out);
        int child = intern(w, c ? n - 1 : n, r_child); /* which may move the states */
        if (child < 0 || push(w, id, child, c ? 1 : -1, type2 ? 0 : 3 - 2 * c, type2 && c, closed) < 0)
            return -1;
    }
    return 0;
}

/* As `_kernel_py._memo_walk`: one pass over the states in falling rank, from the root's
   rank top down, each list of a rank threaded through the states' next.  Every parent
   of a state has a higher rank, so its paths are complete when it is expanded; then
   they are pushed on and freed. */
static int memo_walk(Walk *w, int root, int top)
{
    State *st = &w->states[root];
    if (!(st->hist = new_hist(NULL)) || add_group(st->hist, 0, 0, 0, 1, 1) < 0)
        return -1;
    st->sign = 1;
    for (int r = top; r >= 0; r--)
        for (int id = w->rank[r]; id >= 0; id = w->states[id].next) {
            if (expand(w, id, r) < 0)
                return -1;
            release(w->states[id].hist);
            w->states[id].hist = NULL;
        }
    return 0;
}

/* Read the seed argument of resolve_sum, NULL for none: a non-negative int draws, from
   its splitmix64 mix mod 2**64 (`_kernel_py._mix`), and a negative one or none asks for
   the default order.  -1 with an exception for what is no int. */
static int read_seed(Walk *w, PyObject *seed)
{
    int overflow = 0;
    long long s = seed ? PyLong_AsLongLongAndOverflow(seed, &overflow) : -1;
    if (s == -1 && PyErr_Occurred())
        return -1;
    w->random_pick = overflow > 0 || (overflow == 0 && s >= 0);
    u64 z = (seed ? PyLong_AsUnsignedLongLongMask(seed) : 0) + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    w->mixed = z ^ (z >> 31);
    return 0;
}

static PyObject *resolve_sum(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"key", "seed", NULL};
    PyObject *key, *seed = NULL, *result = NULL;
    Walk w = {0};

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O!|O!", kwlist, &PyBytes_Type, &key,
                                     &PyLong_Type, &seed))
        return NULL;
    if (read_seed(&w, seed) < 0)
        return NULL;
    Py_ssize_t size = PyBytes_GET_SIZE(key);
    /* as `_kernel_py._check`: each slot a's partner p is another slot, p's partner is a, and
       the strands at a and p have one color */
    const u8 *in = (const u8 *)PyBytes_AS_STRING(key);
    int bad = size % 10 || size > 10 * MAX_CROSSINGS;
    int n = bad ? 0 : (int)(size / 10), m = 4 * n;
    for (int a = 0; a < m && !bad; a++) {
        int p = 4 * in[a] + in[m + a];
        bad = in[a] >= n || in[m + a] > 3 || p == a || 4 * in[p] + in[m + p] != a ||
              in[8 * n + n * (a & 1) + a / 4] != in[8 * n + n * (p & 1) + p / 4];
    }
    if (bad) {
        PyErr_Format(PyExc_ValueError, "kernel takes a key of 10 bytes a crossing, at most %d "
                     "crossings, each slot paired with another slot of its color", MAX_CROSSINGS);
        return NULL;
    }
    int root = -1, top = rank(in, n);
    Py_ssize_t n_ranks = 0;
    if (reserve(&w.keys, &w.cap_keys, size + 1, 1) == 0 &&
        reserve(&w.rank, &n_ranks, top + 1, sizeof(int)) == 0) {
        memcpy(w.keys, in, size);
        memset(w.rank, 0xff, n_ranks * sizeof(int));
        root = intern(&w, n, top);
    }
    if (root < 0 || memo_walk(&w, root, top) < 0 || !(result = PyDict_New()))
        goto done;
    for (Py_ssize_t g = 0; result && g < w.out.n_groups; g++) { /* the sums without their zeros */
        const Group *e = &w.out.groups[g];
        if (!e->count)
            continue;
        PyObject *tuple = Py_BuildValue("(iii)", e->apow, e->dpow, e->k);
        PyObject *count = e->count == (long long)e->count ? PyLong_FromLongLong((long long)e->count)
                          : _PyLong_FromByteArray((const u8 *)&e->count, 16, PY_LITTLE_ENDIAN, 1);
        if (!tuple || !count || PyDict_SetItem(result, tuple, count) < 0)
            Py_CLEAR(result);
        Py_XDECREF(tuple);
        Py_XDECREF(count);
    }
done:
    for (Py_ssize_t i = 0; i < w.n_states; i++)
        release(w.states[i].hist);
    PyMem_Free(w.keys);
    PyMem_Free(w.states);
    PyMem_Free(w.table);
    PyMem_Free(w.rank);
    free_hist(&w.out);
    return result;
}

static PyMethodDef methods[] = {
    {"resolve_sum", (PyCFunction)(void (*)(void))resolve_sum, METH_VARARGS | METH_KEYWORDS,
     "resolve_sum(key, seed=-1)\n--\n\nResolve completely; return "
     "{(apow, dpow, k): signed leaf count}."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernel_c", "Compiled twin of tiedbracket._kernel_py.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__kernel_c(void)
{
    crc_init();
    return PyModule_Create(&module);
}
