"""Independent reference formulas for the conversion maps.

These are the explicit trace and einsum formulas of the paper, one per map,
written directly over the basis elements, and the structure-constant routes
for c, H and the G = Q + R split. The library derives every map from the
vec/reshuffle core in `lindblad_ode.core`; the tests compare the two.
They cost about d^10 and are only meant for small d.
"""
import numpy as np

from lindblad_ode import MasterEqParams, OdePair, SuperopTensor, Tensor4, structure_constants


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
