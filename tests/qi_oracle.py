"""Reference certificate scans in plain Python Fractions.

This is the pair-by-pair implementation that ``coarsegraph.qi_cert`` had
before its integer kernel, kept as the oracle the kernel must agree with:
same (lambda, C, D) from ``oracle_tighten`` and the same first failure from
``oracle_verify``, in ascending (u, v) scan order, then coverage.
"""
from __future__ import annotations

from fractions import Fraction

from coarsegraph.qi_cert import FailurePoint, QuasiIsometryCert, Valid


def oracle_verify(m, cert: QuasiIsometryCert):
    S = sorted(cert.coord)
    if not S:
        raise ValueError("certificate domain is empty")
    lam = Fraction(cert.lam)
    if lam < 1 or cert.C < 0 or cert.D < 0:
        raise ValueError("need lambda >= 1, C >= 0, D >= 0")
    coord = cert.coord
    for i, u in enumerate(S):
        row = m.row(u)
        cu = coord[u]
        for v in S[i + 1 :]:
            delta = abs(cu - coord[v])
            d = row[v]
            if d > lam * delta + cert.C:
                return FailurePoint(u, v)
            if delta > lam * (d + cert.C):
                return FailurePoint(u, v)
    cover = m.distances_from_set(S)
    for w, dw in enumerate(cover):
        if dw > cert.D:
            return FailurePoint(w)
    return Valid()


def oracle_tighten(m, coord: dict) -> QuasiIsometryCert:
    S = sorted(coord)
    if not S:
        raise ValueError("empty coordinate")
    C = 0
    for i, u in enumerate(S):
        row = m.row(u)
        cu = coord[u]
        for v in S[i + 1 :]:
            if coord[v] == cu:
                C = max(C, row[v])
    lam = Fraction(1)
    for i, u in enumerate(S):
        row = m.row(u)
        cu = coord[u]
        for v in S[i + 1 :]:
            delta = abs(cu - coord[v])
            if delta == 0:
                continue
            d = row[v]
            if d - C > 0:
                lam = max(lam, Fraction(d - C, delta))
            lam = max(lam, Fraction(delta, d + C))
    D = max(m.distances_from_set(S))
    return QuasiIsometryCert(dict(coord), lam, C, D)
