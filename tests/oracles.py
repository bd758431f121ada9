"""Independent reference formulas for the conversion maps, and the paper's
theorems about them as checks.

These are the explicit trace and einsum formulas of the paper, one per map,
written directly over the basis elements, the structure-constant routes
for c, H and the G = Q + R split, the explicit actions of the dissipator and
of the sandwich form, the quadratic form of the CP test, and the numerical
ranks of a -> R and a -> (R, c) (these run the library's forward map over a
basis of the rate matrices). The library derives every map from the
vec/reshuffle core in `lindblad_ode.core`; the tests compare the two.
They cost about d^10 and are only meant for small d. expm_extended is the
matrix exponential in numpy's extended precision, a reference for the
solver's double-precision one, per_time_trajectory the propagator
trajectory with one exponential per time, a reference for the library's
stepping, and modal_trajectory the spectral closed form of v' = G v + c.
kron_hamiltonian_superop, kron_dissipator_superop, moveaxis_reshuffle,
moveaxis_unreshuffle and unique_step_outward are the np.kron, np.moveaxis
and np.unique forms of the core and of the stepping, which the library's
broadcast, transpose and dict forms must equal bit for bit.
stream, sample_ginoe_pair and sample_gue draw one rarity sample at a time
from its own Philox stream, the reference for rarity's re-keyed batches;
stable_candidates_degree4 is the all-at-once Routh-Hurwitz prefilter that
rarity's staged one must refine, and rates_matrix_all_at_once the
single-stack build of rarity's M, which its block-by-block build must equal
bit for bit. gue_covariance_check runs rarity's moment loop on GUE
samples. canonical_eig_order is the loop form of the eigenvector
tie-break, which forward's must equal bit for bit.
spectrum_relation and dissipator_symmetry evaluate two theorems of the paper
on the library's own maps: spec(L) = {0} u spec(G), and the four equivalent
conditions for a Hermitian dissipator.
"""
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from lindblad_ode import (
    MasterEqParams,
    OdePair,
    SuperopTensor,
    Tensor4,
    adjoint_tensor,
    core,
    forward_map,
    liouvillian_matrix,
    structure_constants,
    tensor_from_map,
    tolerance,
)
from lindblad_ode.odesolve import _MAX_NORM, _expm, _norm1
from lindblad_ode.rarity import _gue_matrix, _second_moment_report


def q_from_h(h, basis):
    """Q_ij = -i Tr(F_i [H, F_j])."""
    ft = basis.traceless
    comm = np.einsum("ab,jbc->jac", h, ft) - np.einsum("jab,bc->jac", ft, h)
    return -1j * np.einsum("iab,jba->ij", ft, comm)


def r_from_a(a, basis):
    """R_kl = sum_ij a_ij Tr[F_k (F_i F_l F_j - 1/2 {F_j F_i, F_l})]."""
    ft = basis.traceless
    t1 = np.einsum("ij,kab,ibc,lcd,jda->kl", a, ft, ft, ft, ft, optimize=True)
    m = np.einsum("ij,jab,ibc->ac", a, ft, ft, optimize=True)
    t2 = np.einsum("kab,bc,lca->kl", ft, m, ft, optimize=True)
    t3 = np.einsum("kab,lbc,ca->kl", ft, ft, m, optimize=True)
    return t1 - 0.5 * (t2 + t3)


def c_from_a(a, basis):
    """c_k = (1/d) sum_ij a_ij Tr([F_i, F_j] F_k)."""
    ft = basis.traceless
    prod = np.einsum("iab,jbc,kca->ijk", ft, ft, ft, optimize=True)
    return np.einsum("ij,ijk->k", a, prod - prod.transpose(1, 0, 2)) / basis.dim


def c_from_a_structure(a, basis):
    """c_k = (i/d) a_ij f_ijk."""
    f = structure_constants(basis).f
    return 1j * np.einsum("ij,ijk->k", np.asarray(a, dtype=complex), f) / basis.dim


def g_tilde(g, c, basis):
    """Stack of operators G~_n = sum_m G_nm F_m + c_n I."""
    return np.einsum("nm,mab->nab", g, basis.traceless) + c[:, None, None] * np.eye(basis.dim)


def cp_quadratic_form(pair: OdePair, big_b, basis):
    """sum_i Tr[G~_i B^dag F_i B]."""
    gt = g_tilde(pair.G, pair.c, basis)
    big_b = np.asarray(big_b, dtype=complex)
    return np.einsum("iab,bc,icd,da->", gt, big_b.conj().T, basis.traceless, big_b, optimize=True)


def a_from_gc(g, c, basis):
    """a_mn = sum_i Tr[G~_i F_m F_i F_n]."""
    ft = basis.traceless
    return np.einsum("iab,mbc,icd,nda->mn", g_tilde(g, c, basis), ft, ft, ft, optimize=True)


def h_from_g(g, basis):
    """H = (1/2id) sum_nm G_nm [F_m, F_n]."""
    ft = basis.traceless
    prod = np.einsum("nm,mab,nbc->ac", g, ft, ft, optimize=True)
    prod_rev = np.einsum("nm,nab,mbc->ac", g, ft, ft, optimize=True)
    return (prod - prod_rev) / (2j * basis.dim)


def h_from_g_structure(g, basis):
    """H = sum_m h_m F_m with coordinates h_m = -(1/2d) f_jkm G_jk."""
    f = structure_constants(basis).f
    hm = -np.einsum("jkm,jk->m", f, np.asarray(g, dtype=float)) / (2 * basis.dim)
    return np.einsum("m,mab->ab", hm, basis.traceless)


def decompose_g(g, basis):
    """Q_ij = (1/2d) sum_{nmk} G_nm f_knm f_kij and R = G - Q."""
    f = structure_constants(basis).f
    q = np.einsum("nm,knm,kij->ij", g, f, f, optimize=True) / (2 * basis.dim)
    return q, g - q


def meq_to_x(p: MasterEqParams, basis) -> Tensor4:
    """x_ijkl = -i H_ij delta_kl + i delta_ij H_kl + sum_mn a_mn (F_m)_ij (F_n)_kl."""
    h = p.hamiltonian
    delta = np.eye(basis.dim)
    x = (
        -1j * np.einsum("ij,kl->ijkl", h, delta)
        + 1j * np.einsum("ij,kl->ijkl", delta, h)
        + np.einsum("mn,mij,nkl->ijkl", p.rates, basis.traceless, basis.traceless, optimize=True)
    )
    return Tensor4(entries=x, flavor="x")


def gc_to_x(pair: OdePair, basis) -> Tensor4:
    """x = x-tilde minus the identity legs b (x) I + I (x) b, with b read off (G, c)."""
    ft = basis.traceless
    d = basis.dim
    eye = np.eye(d)
    anti = np.einsum("nm,mab,nbc->ac", pair.G, ft, ft, optimize=True)
    anti = anti + np.einsum("nm,nab,mbc->ac", pair.G, ft, ft, optimize=True)
    b = (anti - np.trace(pair.G) * eye / d) / (2 * d)
    b = b + np.einsum("n,nab->ab", pair.c, ft) / d
    xt = np.einsum("nkj,nil->ijkl", g_tilde(pair.G, pair.c, basis), ft, optimize=True)
    x = xt - np.einsum("ij,kl->ijkl", b, eye) - np.einsum("ij,kl->ijkl", eye, b)
    return Tensor4(entries=x, flavor="x")


def superop_to_gc(t: SuperopTensor, basis) -> OdePair:
    """G_nq = Tr[F_n L(F_q)], c_n = Tr[F_n L(I)] / d."""
    ft = basis.traceless
    lf = np.einsum("klmn,qlm->qkn", t.entries, ft, optimize=True)
    g = np.einsum("nab,qba->nq", ft, lf, optimize=True)
    c = np.einsum("nab,ba->n", ft, np.einsum("klln->kn", t.entries)) / basis.dim
    return OdePair(G=g.real, c=c.real)


def superop_matrix(t: SuperopTensor, basis) -> np.ndarray:
    """E_ij = Tr[F_i E(F_j)]."""
    f = basis.elements
    return np.einsum("ink,klmn,jlm->ij", f, t.entries, f, optimize=True)


def faf_from_tensor(t: SuperopTensor, basis) -> np.ndarray:
    """c_ij = sum F_i[l,k] F_j[n,m] T[k,l,m,n]."""
    f = basis.elements
    return np.einsum("ilk,jnm,klmn->ij", f, f, t.entries, optimize=True)


def diagonalize_dissipator(a, basis):
    """gamma, the eigenvectors u and L_alpha = sum_j u*_aj F_j, one column at a time.

    Each column is rotated so its largest-magnitude component is real and
    positive; near-degenerate columns are sorted by their rounded components,
    largest first.
    """
    w, v = np.linalg.eigh(np.asarray(a, dtype=complex))
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    for k in range(v.shape[1]):
        col = v[:, k]
        idx = int(np.argmax(np.abs(col)))
        phase = col[idx] / abs(col[idx]) if abs(col[idx]) > 0 else 1.0
        v[:, k] = col / phase
    i = 0
    while i < len(w):
        jend = i + 1
        while jend < len(w) and abs(w[jend] - w[i]) <= 1e-12 * max(1.0, abs(w[i])):
            jend += 1
        if jend - i > 1:
            cols = sorted(range(i, jend), key=lambda k: tuple(np.round(v[:, k], 9).view(float)), reverse=True)
            v[:, i:jend] = v[:, cols]
        i = jend
    gamma = np.where(np.abs(w) < 1e-12 * np.abs(w).max(), 0.0, w)
    return gamma, v, [np.einsum("j,jab->ab", v[:, k], basis.traceless) for k in range(basis.J)]


def apply_dissipator(a, x, basis):
    """sum_ij a_ij (F_i X F_j - 1/2 {F_j F_i, X}), for any complex a."""
    ft = basis.traceless
    out = np.einsum("ij,iab,bc,jcd->ad", a, ft, x, ft, optimize=True)
    m = np.einsum("ij,jab,ibc->ac", a, ft, ft, optimize=True)
    return out - 0.5 * (m @ x + x @ m)


def apply_liouvillian(p: MasterEqParams, x, basis):
    """-i[H, X] plus the dissipator."""
    h = p.hamiltonian
    return -1j * (h @ x - x @ h) + apply_dissipator(p.rates, x, basis)


def apply_faf(c, x, basis):
    """sum_ij c_ij F_i X F_j over the full basis."""
    f = basis.elements
    return np.einsum("ij,iab,bc,jcd->ad", c, f, x, f, optimize=True)


def superop_hermitian(a, basis, tol):
    """The dissipator tensor, built one matrix unit at a time, against the tensor of its adjoint."""
    t = tensor_from_map(lambda x: apply_dissipator(a, x, basis), basis.dim)
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)))
    return float(np.max(np.abs(t.entries - adjoint_tensor(t).entries), initial=0.0)) <= tol * scale


def dissipator_symmetry(a, basis):
    """The four equivalent conditions for the dissipator of a to be Hermitian, by name.

    The core superoperator S is Hermitian; a is symmetric; a is real; R is
    symmetric and c = 0. Each holds when its residue is negligible at the
    scale of a (tolerance.DATA), so the four agree on Hermitian a.
    """
    params = MasterEqParams(hamiltonian=np.zeros((basis.dim, basis.dim)), rates=a)
    a = params.rates
    s = core.dissipator_superop(a, basis)
    pair = forward_map(params, basis)

    def zero(residue):
        return tolerance.negligible(residue, a, tolerance.DATA)

    return {
        "superop_hermitian": zero(s - s.conj().T),
        "rates_symmetric": zero(a - a.T),
        "rates_real": zero(a.imag),
        "r_symmetric_and_c_zero": zero(pair.R - pair.R.T) and zero(pair.c),
    }


def eigenvalues_match(xs, ys, tol):
    """True when the multisets xs and ys pair up one to one within tol, under the pairing of least total distance."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    if xs.shape != ys.shape:
        return False
    dist = np.abs(xs[:, None] - ys[None, :])
    return bool(np.all(dist[linear_sum_assignment(dist)] <= tol))


def spectrum_relation(params, basis):
    """spec(L) = {0} u spec(G), eigenvalues matched within tolerance.SPECTRAL at the scale of G."""
    g = forward_map(params, basis).G
    tol = tolerance.bound(tolerance.magnitude(g), tolerance.SPECTRAL)
    big = np.linalg.eigvals(liouvillian_matrix(params, basis))
    return eigenvalues_match(big, np.append(0.0, np.linalg.eigvals(g)), tol)


def image_dimensions(basis):
    """Numerical ranks of a -> R and a -> (R, c) over a real basis of the Hermitian a."""
    j = basis.J
    if j == 0:
        return 0, 0, 0
    zero_h = np.zeros((basis.dim, basis.dim))
    # a = (Y + Y^T)/2 + i(Y - Y^T)/2 over the real unit matrices Y spans the Hermitian matrices
    pairs = [
        forward_map(MasterEqParams(hamiltonian=zero_h, rates=(y + y.T) / 2 + 0.5j * (y - y.T)), basis)
        for y in np.eye(j * j).reshape(-1, j, j)
    ]
    rs = np.array([p.R for p in pairs])
    rows_r = rs.reshape(j * j, -1)

    def _rank(m):
        sv = np.linalg.svd(m, compute_uv=False)
        return int(np.sum(sv > 1e-8 * sv[0]))

    dim_image = _rank(rows_r)
    # the image meets the antisymmetric matrices in the kernel of R -> R + R^T on it
    dim_intersection = dim_image - _rank((rs + rs.transpose(0, 2, 1)).reshape(j * j, -1))
    kernel_dim = j * j - _rank(np.hstack([rows_r, [p.c for p in pairs]]))
    return dim_image, dim_intersection, kernel_dim


def closed_form_image_dimensions(j):
    """The closed form (J^2 - J, J(J-1)/2 - J, 0) of image_dimensions for J = d^2 - 1.

    a -> (G, c) is a bijection (kernel 0); the image of a -> R is the kernel of
    the onto map R -> H(R) of r_image_check (J fewer dimensions), which stays
    onto on the antisymmetric matrices because H(q_from_h(H)) = H.
    """
    return j * j - j, j * (j - 1) // 2 - j, 0


def expm_extended(m):
    """e^A by its Taylor series in numpy's long double, scaled to ||A||_1 <= 1/2 and squared back.

    Where long double is the 80-bit x87 format (u = 2^-64) this is about 2000 times
    more accurate than a double-precision exponential, up to the final rounding.
    """
    a = np.asarray(m, dtype=np.longdouble)
    norm = float(np.max(np.abs(a).sum(axis=0), initial=0.0))
    s = max(0, math.frexp(norm)[1] + 1)
    a = np.ldexp(a, -s)
    term = total = np.eye(a.shape[0], dtype=np.longdouble)
    for k in range(1, 21):  # the tail is below 2^-21 / 21! < 1e-25
        term = term @ a / k
        total = total + term
    for _ in range(s):
        total = total @ total
    return total.astype(float)


def per_time_trajectory(m, x0, times):
    """Row k is e^{M t_k} x0, one exponential of M t_k per time; nan where _expm refuses M t_k."""
    t = np.asarray(times, dtype=float).reshape(-1)
    return _expm(np.asarray(m) * t[:, None, None]) @ x0


def unique_step_outward(m, x0, t):
    """odesolve._step_outward with np.unique for the distinct steps and one row assignment per time."""
    out = np.empty((len(t), len(x0)))
    for side in (~(t < 0), t < 0):
        order = np.flatnonzero(side)
        if not len(order):
            continue
        order = order[np.argsort(np.abs(t[order]), kind="stable")]
        ts = t[order]
        steps, which = np.unique(np.diff(ts, prepend=0.0), return_inverse=True)
        exps = _expm(m * steps[:, None, None])
        x = x0
        for row, k in zip(order.tolist(), which.tolist()):
            x = exps[k] @ x
            out[row] = x
        if not _norm1(m * ts[-1:, None, None])[0] <= _MAX_NORM:
            out[order[~(_norm1(m * ts[:, None, None]) <= _MAX_NORM)]] = np.nan
    return out


def kron_hamiltonian_superop(h):
    """-i (H (x) I - I (x) H^T) by np.kron."""
    eye = np.eye(h.shape[0])
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def kron_dissipator_superop(a, basis):
    """core.dissipator_superop with np.kron for K (x) I + I (x) K^T and moveaxis_reshuffle."""
    d = basis.dim
    ft = core.basis_columns(a, basis, 1)
    k = np.einsum("jab,jbc->ac", basis.traceless, (ft @ a).T.reshape(-1, d, d))
    eye = np.eye(d)
    return moveaxis_reshuffle(ft @ a @ ft.T) - 0.5 * (np.kron(k, eye) + np.kron(eye, k.T))


def moveaxis_reshuffle(m):
    """[(p,r),(s,q)] -> [(p,q),(r,s)] over the last two axes by np.moveaxis."""
    d = math.isqrt(m.shape[-1])
    return np.moveaxis(m.reshape(*m.shape[:-2], d, d, d, d), -1, -3).reshape(m.shape)


def moveaxis_unreshuffle(s):
    """[(p,q),(r,s)] -> [(p,r),(s,q)] over the last two axes by np.moveaxis."""
    d = math.isqrt(s.shape[-1])
    return np.moveaxis(s.reshape(*s.shape[:-2], d, d, d, d), -3, -1).reshape(s.shape)


def modal_trajectory(g, c, v0, times):
    """Row k is v(times[k]) = sum_j s_j e^{lambda_j t} x^(j) + v_inf, the spectral form of v' = G v + c.

    G x^(j) = lambda_j x^(j), v_inf = -G^{-1} c and s = X^{-1} (v0 - v_inf); a mode
    whose coefficient is exactly 0 contributes exactly 0. None where the form is not
    trusted: G singular at the tolerance.SPECTRAL cut, or cond(X) >= 1 / SPECTRAL.
    """
    sv = np.linalg.svd(g, compute_uv=False)
    if sv.size == 0 or tolerance.rank(sv, tolerance.SPECTRAL) < sv.size:
        return None
    w, x = np.linalg.eig(g)
    if np.linalg.cond(x) >= 1.0 / tolerance.SPECTRAL:
        return None
    v_inf = -np.linalg.solve(g, c)
    s = np.linalg.solve(x, (v0 - v_inf).astype(complex))[:, None]
    t = np.asarray(times, dtype=float).reshape(-1)
    with np.errstate(all="ignore"):
        growth = np.where(s == 0, 0.0, s * np.exp(np.outer(w, t)))
    return (x @ growth).T.real + v_inf


def stream(seed, index):
    """The Philox stream of sample index: one Generator keyed by [seed, index]."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def sample_ginoe_pair(d, rng):
    """G entries i.i.d. N(0,1); sqrt(d)*c entries i.i.d. N(0,1)."""
    j = d * d - 1
    g = rng.standard_normal((j, j))
    c = rng.standard_normal(j) / np.sqrt(d)
    return OdePair(G=g, c=c)


def sample_gue(j, rng):
    """Hermitian a = (A + A^dag)/2 with A entries' re/im parts ~ N(0, 1/2)."""
    scale = np.sqrt(0.5)
    a = scale * (rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j)))
    return (a + a.conj().T) / 2


def stable_candidates_degree4(gs, tol):
    """All-at-once Routh-Hurwitz mask of max Re lambda(G) <= tol: c_1..c_4 and Delta_2 = c_1 c_2 - c_3
    on every sample, from one batched H @ H and r = sqrt(J) ||H||_F."""
    j = gs.shape[-1]
    h = gs - tol * np.eye(j)
    h2 = h @ h
    p = (
        np.trace(h, axis1=1, axis2=2),
        np.trace(h2, axis1=1, axis2=2),
        np.einsum("sij,sji->s", h2, h),
        np.einsum("sij,sji->s", h2, h2),
    )[: min(j, 4)]
    r = np.sqrt(j) * np.linalg.norm(h, axis=(1, 2))
    c = [1.0]  # c_k of det(sI - H), by Newton's identities
    for k in range(1, len(p) + 1):
        c.append(-sum(c[k - i] * p[i - 1] for i in range(1, k + 1)) / k)
    keep = np.ones(len(gs), dtype=bool)
    for k in range(1, len(c)):
        keep &= c[k] >= -tolerance.MARGIN * (1.0 + r**k)
    if j >= 3:
        keep &= c[1] * c[2] - c[3] >= -tolerance.MARGIN * (1.0 + r**3)
    return keep


def rates_matrix_all_at_once(basis):
    """M with vec a(G, c) = [vec G, sqrt(d) c] @ M, from one stack of all J^2 + J unit Lhat matrices."""
    j = basis.J
    units = np.eye(j * j + j)
    lhat = np.zeros((len(units), j + 1, j + 1))
    lhat[:, 1:, 1:] = units[:, : j * j].reshape(-1, j, j)
    lhat[:, 1:, 0] = units[:, j * j :]
    return core.rates(core.from_coordinates(lhat, basis), basis).reshape(len(units), j * j)


def gue_covariance_check(j, n_samples, seed):
    """Compare E(a_mn a_m'n') of GUE samples against (1/2) delta_mn' delta_nm'."""
    eye = np.eye(j)
    return _second_moment_report("GUE", n_samples, seed, _gue_matrix(j), 0.5 * np.einsum("mq,np->mnpq", eye, eye))


def canonical_eig_order(w, v):
    """forward._canonical_eig_order with its cluster tie-break as a Python loop over every eigenvalue,
    each cluster sorted by tuple keys of its rounded components."""
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    pivot = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    v = v / (pivot / np.hypot(pivot.real, pivot.imag))
    vals = w.tolist()
    gap = tolerance.cut(w, tolerance.ROUNDING)
    i = 0
    while i < len(vals):
        jend = i + 1
        while jend < len(vals) and abs(vals[jend] - vals[i]) <= gap:
            jend += 1
        if jend - i > 1:
            cols = sorted(
                range(i, jend),
                key=lambda k: tuple(np.round(v[:, k], 9).view(float)),
                reverse=True,
            )
            v[:, i:jend] = v[:, cols]
        i = jend
    return w, v
