"""The closed forms of the CMC spheres S_a(H) and Hopf tori T_a(H), each written once.

Every oracle takes a namespace first: mpmath, at the precision the caller sets
with mpmath.workdps, or sympy, on symbols.  c = 1 + H^2 and X = (1 - a)/c.  The
constants and the band edges are roots by mpmath.findroot.  Nothing here imports
bergercmc or scipy, so an oracle shares no code with the routine it checks.
"""


def _params(ns, a, H=0):
    """a and H in the namespace (mpf in mpmath), c and X."""
    mpf = getattr(ns, "mpf", lambda x: x)
    a, H = mpf(a), mpf(H)
    return a, H, 1 + H * H, (1 - a) / (1 + H * H)


def branch_symbols(sign):
    """Positive sympy symbols H, b and a = 1 - sign b, so X > 0 (sign 1) or X < 0 (sign -1)."""
    import sympy

    H, b = sympy.symbols("H b", positive=True)
    return H, 1 - sign * b


def X_at(ns, a, H):
    return _params(ns, a, H)[3]


def G(ns, X):
    """artanh(sqrt X)/sqrt X for X > 0, atan(sqrt -X)/sqrt -X for X < 0, 1 at X = 0."""
    r = ns.sqrt(abs(X))
    return ns.atanh(r) / r if X > 0 else ns.atan(r) / r if X < 0 else 1


def area(ns, a, H):
    a, H, c, X = _params(ns, a, H)
    return 2 * ns.pi * (1 + (H * H + a) * G(ns, X) / c) / c


def koiso(ns, a, H, terms=False):
    """The Koiso integral pi/(2c^2) (3 + (H^2 + 3a - 2) G(X)/c), or its two terms."""
    a, H, c, X = _params(ns, a, H)
    t = 3 * ns.pi / (2 * c * c), ns.pi * (H * H + 3 * a - 2) * G(ns, X) / (2 * c**3)
    return t if terms else sum(t)


def kappa(ns, X):
    return 3 + (1 - 3 * X) * G(ns, X)


def theta(ns, a, H):
    """The turning angle pi/2 - atan(H/sqrt a) + (H/sqrt a) X G(X)."""
    a, H, _, X = _params(ns, a, H)
    return ns.pi / 2 - ns.atan(H / ns.sqrt(a)) + H / ns.sqrt(a) * X * G(ns, X)


def meridian(ns, a, H, x):
    """(z, w) = e^{i phi} (s + H^2 - i sqrt(a) H t, sqrt(a) t + i H (1 - s))/sqrt(c q) with
    phi = -(H/sqrt a) X t G(X t^2), t = tanh x, s = sech x, q = H^2 + a t^2 + s^2 (mpmath)."""
    a, H, c, X = _params(ns, a, H)
    t, s, sa = ns.tanh(x), ns.sech(x), ns.sqrt(a)
    e = ns.expj(-H / sa * X * t * G(ns, X * t * t)) / ns.sqrt(c * (H * H + a * t * t + s * s))
    return e * ns.mpc(s + H * H, -sa * H * t), e * ns.mpc(sa * t, H * (1 - s))


def volume(ns, a, H, terms=False):
    """V = 2 pi sqrt(a) Theta - H A/2 expanded, or its three terms."""
    a, H, c, X = _params(ns, a, H)
    sa = ns.sqrt(a)
    t = (2 * ns.pi * sa * (ns.pi / 2 - ns.atan(H / sa)), -ns.pi * H / c,
         ns.pi * H * ((2 - 3 * a) + (1 - 2 * a) * H * H) * G(ns, X) / c**2)
    return t if terms else sum(t)


def X_star(mp):
    """The root of X G(X) = 1, where Theta peaks over H."""
    return mp.findroot(lambda x: x * G(mp, x) - 1, mp.mpf("0.69"))


def X_K(mp):
    """The root of kappa on (1/3, 1): alpha0 = 1 - X_K."""
    return mp.findroot(lambda x: kappa(mp, x), (mp.mpf("0.8"), mp.mpf("0.95")),
                       solver="anderson")


def H_at_X(ns, a, X):
    """The H where (1 - a)/(1 + H^2) = X: at X_K the stability boundary H(a)."""
    return ns.sqrt((1 - _params(ns, a)[0]) / X - 1)


def alpha1_cubic(a):
    """23 a^3 - 26 a^2 + 23 a - 4, whose one real root is alpha1."""
    return ((23 * a - 26) * a + 23) * a - 4


def alpha_emb(mp):
    """The root of max_H Theta(a, H) = pi, the peak being at X = X*."""
    x_star = X_star(mp)
    return mp.findroot(lambda a: theta(mp, a, H_at_X(mp, a, x_star)) - mp.pi,
                       (mp.mpf("0.04"), mp.mpf("0.06")), solver="anderson")


def band_edges(mp, a):
    """(H_-, H_+), the roots of Theta(a, H) = pi on either side of the peak, a < alpha_emb."""
    top = H_at_X(mp, a, X_star(mp))
    far = 2 * top
    while theta(mp, a, far) >= mp.pi:
        far *= 2
    return tuple(mp.findroot(lambda h: theta(mp, a, h) - mp.pi, bracket, solver="anderson")
                 for bracket in ((mp.mpf(0), top), (top, far)))


def _torus(ns, a, H):
    """a and u = r1/r2 = H + sqrt(1 + H^2)."""
    a, H, c, _ = _params(ns, a, H)
    return a, H + ns.sqrt(c)


def torus_radii(ns, a, H):
    """(r1, r2) = (u, 1)/sqrt(1 + u^2): r1/r2 = u and r1^2 + r2^2 = 1."""
    u = _torus(ns, a, H)[1]
    return u / ns.sqrt(1 + u * u), 1 / ns.sqrt(1 + u * u)


def torus_dual_gram(ns, a, H):
    a, u = _torus(ns, a, H)
    return (1 / a + 1 / u**2, (1 - a) / a), ((1 - a) / a, 1 / a + u**2)


def torus_form(ns, a, H, m, n):
    """The Laplace eigenvalue at the integers (m, n)."""
    a, u = _torus(ns, a, H)
    return (m + n) ** 2 / a + (m / u - n * u) ** 2


def torus_volume(ns, a, H):
    a, H, c, _ = _params(ns, a, H)
    return ns.pi**2 * ns.sqrt(a) * (1 - H / ns.sqrt(c))
