"""Two-sample band-power statistics, FDR correction, and topographic maps.

t-values follow the convention misarticulated minus correct, so positive t
means higher power in misarticulated trials. All band-by-channel tests are
corrected jointly as one Benjamini-Hochberg family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample, InsufficientTrials
from .montage import Montage
from .spectral import PSD_FLOOR, BandTable

_BETACF_EPS = 1e-15
_BETACF_TINY = 1e-300
_BETACF_MAX_ITER = 400


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta integral (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETACF_TINY:
        d = _BETACF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        # the even and the odd step of the fraction
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _BETACF_TINY:
                d = _BETACF_TINY
            c = 1.0 + aa / c
            if abs(c) < _BETACF_TINY:
                c = _BETACF_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1], absolute error < 1e-8."""
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # pick the representation whose continued fraction converges fast
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(0.5 * df, 0.5, x)


@dataclass(frozen=True)
class TTestResult:
    """Floats for 1-D groups, arrays of the groups' trailing shape otherwise."""

    t: float | np.ndarray
    df: float | np.ndarray
    p_two_sided: float | np.ndarray


def welch_t_test(a, b) -> TTestResult:
    """Unequal-variance two-sample t-tests with Welch-Satterthwaite df.

    a and b are [samples x ...] groups with equal trailing shapes, and every
    trailing index is one test; t is mean(a) - mean(b). Each test reduces
    over a contiguous row, in the same order as a 1-D call. Raises
    DegenerateSample when both groups of any test have zero variance.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise InsufficientTrials(f"need at least 2 samples per group, got {na} and {nb}")
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(f"groups of shapes {a.shape} and {b.shape} differ past the samples axis")
    a = np.ascontiguousarray(np.moveaxis(a, 0, -1))
    b = np.ascontiguousarray(np.moveaxis(b, 0, -1))
    va, vb = a.var(axis=-1, ddof=1), b.var(axis=-1, ddof=1)
    if ((va == 0.0) & (vb == 0.0)).any():
        raise DegenerateSample("all values identical in both groups")
    sa, sb = va / na, vb / nb
    t = (a.mean(axis=-1) - b.mean(axis=-1)) / np.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa**2 / (na - 1) + sb**2 / (nb - 1))
    p = np.vectorize(student_t_two_sided_p, otypes=[np.float64])(t, df)
    return TTestResult(t[()], df[()], p[()])


def bh_fdr(p_values, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Benjamini-Hochberg step-up: (adjusted p-values, reject flags).

    adjusted[i] = min over ranks j >= rank(i) of m * p_(j) / j, clamped to 1;
    reject where adjusted <= alpha. Ties sort stably on (p, original index).
    """
    p = np.asarray(p_values, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"expected a 1-D p-value vector, got shape {p.shape}")
    if ((p < 0) | (p > 1)).any():
        raise ValueError("p-values must lie in [0, 1]")
    m = len(p)
    order = np.lexsort((np.arange(m), p))
    ranked = p[order] * m / np.arange(1, m + 1)
    adjusted_sorted = np.minimum(np.minimum.accumulate(ranked[::-1])[::-1], 1.0)
    adjusted = np.empty(m, dtype=np.float64)
    adjusted[order] = adjusted_sorted
    return adjusted, adjusted <= alpha


@dataclass(frozen=True)
class TTestMap:
    """Per-channel t statistics for one band, with montage coordinates."""

    band: str
    alpha: float
    channels: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    p_raw: np.ndarray
    p_adjusted: np.ndarray
    significant: np.ndarray


def band_topomaps(
    band_powers_correct: np.ndarray,
    band_powers_mis: np.ndarray,
    channel_names,
    montage: Montage,
    bands: BandTable,
    alpha: float,
) -> list[TTestMap]:
    """Welch t-tests on log10 band power for every band x channel cell.

    Inputs are linear band powers, [trials x channels x bands] per group.
    The BH correction treats all cells as a single family.
    """
    bp_c = np.asarray(band_powers_correct, dtype=np.float64)
    bp_m = np.asarray(band_powers_mis, dtype=np.float64)
    if bp_c.ndim != 3 or bp_m.ndim != 3 or bp_c.shape[1:] != bp_m.shape[1:]:
        raise ValueError(
            f"band power arrays must be [trials x channels x bands] with equal "
            f"trailing shapes, got {bp_c.shape} and {bp_m.shape}"
        )
    if bp_c.shape[0] < 2 or bp_m.shape[0] < 2:
        raise InsufficientTrials(
            f"need at least 2 trials per group, got {bp_c.shape[0]} correct and "
            f"{bp_m.shape[0]} misarticulated"
        )
    n_channels, n_bands = bp_c.shape[1:]
    if n_bands != len(bands):
        raise ValueError(f"{n_bands} power bands for {len(bands)} table entries")
    channel_names = tuple(channel_names)
    if len(channel_names) != n_channels:
        raise ValueError(f"{len(channel_names)} names for {n_channels} channels")

    log_c = np.log10(np.maximum(bp_c, PSD_FLOOR))
    log_m = np.log10(np.maximum(bp_m, PSD_FLOOR))
    res = welch_t_test(log_m.transpose(0, 2, 1), log_c.transpose(0, 2, 1))
    adjusted, reject = (v.reshape(n_bands, n_channels)
                        for v in bh_fdr(res.p_two_sided.ravel(), alpha))

    positions = [montage.entry(name) for name in channel_names]
    xs = np.array([e.x for e in positions])
    ys = np.array([e.y for e in positions])
    return [
        TTestMap(band.name, alpha, channel_names, xs, ys, t=res.t[bi], p_raw=res.p_two_sided[bi],
                 p_adjusted=adjusted[bi], significant=reject[bi])
        for bi, band in enumerate(bands)
    ]


# --- rendering -----------------------------------------------------------

_NEG_COLOR = (59, 76, 192)   # strong negative t
_POS_COLOR = (180, 4, 38)    # strong positive t
_MID_COLOR = (255, 255, 255)


def _diverging_color(t: float, limit: float) -> str:
    u = 0.0 if limit == 0 else max(-1.0, min(1.0, t / limit))
    if u < 0:
        lo, hi = _NEG_COLOR, _MID_COLOR
        frac = 1.0 + u
    else:
        lo, hi = _MID_COLOR, _POS_COLOR
        frac = u
    rgb = tuple(round(lo[i] + (hi[i] - lo[i]) * frac) for i in range(3))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def render_topomap_svg(tmap: TTestMap) -> str:
    """Deterministic SVG text for one band map.

    One filled circle per channel on a symmetric diverging scale over t
    (limit: the map's largest |t|), a '+' glyph on FDR-significant channels,
    and a head outline. Equal maps render to byte-identical text.
    """
    peak = float(np.max(np.abs(tmap.t))) if len(tmap.t) else 0.0
    scale_limit = peak if peak > 0 else 1.0
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="420" height="440" '
        'viewBox="-1.3 -1.5 2.6 2.9" font-family="sans-serif">',
        f"<desc>band={tmap.band} alpha={tmap.alpha:g} scale_limit={scale_limit:.6f}</desc>",
        f'<text x="0" y="-1.32" font-size="0.14" text-anchor="middle">'
        f"{tmap.band} (t, misarticulated - correct)</text>",
        # head outline with a nose tick at the top
        '<circle cx="0" cy="0" r="1.05" fill="none" stroke="#444444" stroke-width="0.02"/>',
        '<path d="M -0.1 -1.045 L 0 -1.18 L 0.1 -1.045" fill="none" '
        'stroke="#444444" stroke-width="0.02"/>',
    ]
    for i, name in enumerate(tmap.channels):
        cx = float(tmap.x[i])
        cy = -float(tmap.y[i])  # SVG y axis points down; montage y points to the nose
        fill = _diverging_color(float(tmap.t[i]), scale_limit)
        lines.append(
            f'<circle cx="{cx:.4f}" cy="{cy:.4f}" r="0.055" fill="{fill}" '
            f'stroke="#333333" stroke-width="0.008">'
            f"<title>{name} t={tmap.t[i]:.4f} p_adj={tmap.p_adjusted[i]:.6f}</title>"
            f"</circle>"
        )
    for i, name in enumerate(tmap.channels):
        if tmap.significant[i]:
            cx = float(tmap.x[i])
            cy = -float(tmap.y[i])
            lines.append(
                f'<text x="{cx:.4f}" y="{cy + 0.042:.4f}" font-size="0.12" '
                f'text-anchor="middle" fill="#000000">+</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def topomap_csv(tmap: TTestMap, *, config_hash: str) -> str:
    """Delimited per-channel rows for one band map, deterministic text."""
    lines = [f"# band={tmap.band} alpha={tmap.alpha:g} config_hash={config_hash}"]
    lines.append("channel,x,y,t,p_raw,p_adjusted,significant")
    for i, name in enumerate(tmap.channels):
        lines.append(
            f"{name},{tmap.x[i]:.4f},{tmap.y[i]:.4f},{tmap.t[i]:.10g},"
            f"{tmap.p_raw[i]:.10g},{tmap.p_adjusted[i]:.10g},"
            f"{int(bool(tmap.significant[i]))}"
        )
    return "\n".join(lines) + "\n"
