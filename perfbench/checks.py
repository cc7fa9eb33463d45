"""Output checks computed apart from the program.

Nothing here imports ``toacnn``: the element matrix is the closed form of
Andreassen et al. 2011 (*top88*), assembly and DOF numbering are written out
again, the linear solve is ``scipy.sparse.linalg.spsolve``, and PGM files are
parsed from their bytes. Every check returns a list of failure messages, empty
when the output passes, so a caller can count and report them.
"""

from __future__ import annotations

import math
import re

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# One 8-bit gray level is 1/255 of density; rounding to the nearest level
# moves a pixel by at most half of that.
QUANT = 1.0 / 510.0


def top88_element_matrix(nu: float) -> np.ndarray:
    """Closed-form 8x8 stiffness of a unit-square bilinear plane-stress
    element at unit modulus, DOFs ordered (x, y) per node LL, LR, UR, UL."""
    a11 = np.array([[12, 3, -6, -3], [3, 12, 3, 0], [-6, 3, 12, -3], [-3, 0, -3, 12]], float)
    a12 = np.array([[-6, -3, 0, 3], [-3, -6, -3, -6], [0, -3, -6, 3], [3, -6, 3, -6]], float)
    b11 = np.array([[-4, 3, -2, 9], [3, -4, -9, 4], [-2, -9, -4, -3], [9, 4, -3, -4]], float)
    b12 = np.array([[2, -3, 4, -9], [-3, 2, 9, -2], [4, 9, 2, 3], [-9, -2, 3, 2]], float)
    a = np.block([[a11, a12], [a12.T, a11]])
    b = np.block([[b11, b12], [b12.T, b11]])
    return (a + nu * b) / (24.0 * (1.0 - nu * nu))


def cantilever_compliance(image: np.ndarray, penal: float, nu: float, emin: float,
                          e0: float = 1.0) -> float:
    """Compliance of a density image (row 0 = top) under the cantilever load:
    left edge clamped, unit downward force at the right edge's middle node."""
    nely, nelx = image.shape
    ey, ex = np.meshgrid(np.arange(nely), np.arange(nelx), indexing="ij")
    ul = (nely + 1) * ex.ravel() + ey.ravel()  # upper-left node, column-major ids
    ur = ul + nely + 1
    nodes = np.column_stack([ul + 1, ur + 1, ur, ul])  # LL, LR, UR, UL
    edof = np.repeat(2 * nodes, 2, axis=1) + np.tile([0, 1], 4)
    moduli = emin + image.ravel() ** penal * (e0 - emin)
    ke = top88_element_matrix(nu)
    n = 2 * (nelx + 1) * (nely + 1)
    k = sp.coo_matrix(
        ((moduli[:, None, None] * ke).ravel(),
         (np.repeat(edof, 8, axis=1).ravel(), np.tile(edof, (1, 8)).ravel())),
        shape=(n, n),
    ).tocsc()
    f = np.zeros(n)
    f[2 * (nelx * (nely + 1) + nely // 2) + 1] = -1.0
    free = np.arange(2 * (nely + 1), n)
    u = spla.spsolve(k[free][:, free], f[free])
    return float(f[free] @ u)


def read_pgm_bytes(data: bytes) -> np.ndarray:
    """(h, w) uint8 payload of a binary PGM with maxval 255."""
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", data)
    if m is None:
        raise ValueError("not an 8-bit binary PGM")
    w, h = int(m.group(1)), int(m.group(2))
    payload = np.frombuffer(data[m.end():], dtype=np.uint8)
    if payload.size != w * h:
        raise ValueError(f"PGM payload has {payload.size} bytes, expected {w * h}")
    return payload.reshape(h, w)


def pgm_density(data: bytes) -> np.ndarray:
    """Density image of a PGM: black (0) is solid, white (255) is void."""
    return 1.0 - read_pgm_bytes(data).astype(float) / 255.0


def check_design(values: np.ndarray, vf: float, tol: float = 1e-4) -> list[str]:
    """Densities lie in [0, 1] and their mean is within ``tol`` of vf."""
    out = []
    if not (np.all(np.isfinite(values)) and values.min() >= 0.0 and values.max() <= 1.0):
        out.append("densities outside [0, 1]")
    elif abs(values.mean() - vf) > tol:
        out.append(f"mean density {values.mean():.6f} is off vf {vf} by more than {tol:g}")
    return out


def check_solve(result_objective: float, first_compliance: float, reanalysed: float,
                rel_tol: float = 1e-6) -> list[str]:
    """The objective is finite, improves on the first iterate, and matches an
    independent re-analysis of the returned design."""
    if not math.isfinite(result_objective):
        return [f"objective {result_objective} is not finite"]
    out = []
    if not result_objective < first_compliance:
        out.append(f"objective {result_objective:.6g} not below first iterate {first_compliance:.6g}")
    rel = abs(result_objective - reanalysed) / abs(reanalysed)
    if not rel <= rel_tol:
        out.append(f"objective {result_objective:.10g} differs from re-analysis "
                   f"{reanalysed:.10g} by {rel:.2e} (tol {rel_tol:g})")
    return out


def check_input_pgm(data: bytes, vf: float) -> list[str]:
    """Exactly round(vf N) solid pixels and nothing between solid and void."""
    px = read_pgm_bytes(data)
    if not np.all((px == 0) | (px == 255)):
        return ["input image has gray pixels"]
    want = int(round(vf * px.size))
    got = int((px == 0).sum())
    return [] if got == want else [f"input image has {got} solid pixels, expected {want}"]


def check_target_volume(data: bytes, vf: float, inequality: bool = False) -> list[str]:
    """Target mean within quantization plus 1e-4 of vf; for an inequality
    volume constraint only the upper side is bounded."""
    mean = float(pgm_density(data).mean())
    tol = QUANT + 1e-4
    dev = mean - vf if inequality else abs(mean - vf)
    return [] if dev <= tol else [f"target mean {mean:.6f} breaks vf {vf} by {dev:.2e} (tol {tol:.2e})"]


def voigt_bulk_bound(image: np.ndarray, penal: float, nu: float, emin: float,
                     e0: float = 1.0) -> float:
    """Upper bound on the homogenized bulk response (c11+c12+c21+c22)/4 of a
    cell whose densities are known to within QUANT of ``image``.

    A uniform strain is admissible, so the homogenized energy is at most the
    mean element modulus times the plane-stress energy E/(2(1-nu)). Moving a
    density by QUANT moves rho^p by at most p * QUANT, hence the margin.
    """
    moduli = emin + image ** penal * (e0 - emin)
    return (float(moduli.mean()) + penal * QUANT * (e0 - emin)) / (2.0 * (1.0 - nu))


def check_objective_value(objective, kind: str, bound: float | None = None) -> list[str]:
    """Finite and positive; a bulk modulus also stays under its Voigt bound."""
    if objective is None or not math.isfinite(objective) or objective <= 0.0:
        return [f"{kind} objective {objective} is not finite and positive"]
    if bound is not None and objective > bound:
        return [f"{kind} bulk modulus {objective:.6g} exceeds its Voigt bound {bound:.6g}"]
    return []


def check_untouched(before: dict, after: dict) -> list[str]:
    """Two directory snapshots of {name: (inode, mtime_ns, bytes)} agree on
    every image; the manifest may be replaced only by identical bytes."""
    out = []
    if set(before) != set(after):
        out.append(f"resume changed the file set: {sorted(set(before) ^ set(after))}")
    for name in sorted(set(before) & set(after)):
        if name == "manifest.jsonl":
            if before[name][2] != after[name][2]:
                out.append("resume changed the manifest's contents")
        elif before[name] != after[name]:
            out.append(f"resume rewrote {name}")
    return out


def check_v_err(v_err: float, pred_mean: float, target_mean: float, tol: float = 1e-9) -> list[str]:
    """The report's V_err equals 100 |mean(pred) - mean(target)| / mean(target)."""
    want = 100.0 * abs(pred_mean - target_mean) / target_mean
    return [] if abs(v_err - want) <= tol else [f"V_err {v_err!r} differs from recomputed {want!r}"]
