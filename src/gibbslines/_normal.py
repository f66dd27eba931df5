"""Normal-law log CDF and its inverse, and a log-sum-exp, on numpy alone.

log_ndtr(x) = log Phi(x) and its inverse ndtri_exp(y) serve the truncated
Gaussian draws of gibbs (the hard-wall heat bath and the separation runners'
band proposals); logsumexp folds the runners' importance weights. They stand
in for the scipy.special functions of the same names, whose import costs a
fresh process about 25 MB and 0.15 s. Each works elementwise on arrays of any
shape in one vectorised pass; per-call numpy overhead, not the element count,
sets their cost on the heat bath's arrays of a hundred elements, so each keeps
to a few dozen array operations.

Largest differences from scipy.special on tests/test_normal.py's grids:
log_ndtr 6.7e-16 relative for x in [-1e3, 0] and 3.3e-16 absolute on (0, 40],
where scipy's log(ndtr(x)) is itself accurate only to an ulp of 1; ndtri_exp
1.9e-14 relative on [-1e4, 0) (absolute where |z| < 1), scipy's own error at
y = -1e4 against 40-digit mpmath, against which ndtri_exp's is at most
3.1e-15; logsumexp none, bit for bit. Like scipy's, they are silent on
invalid input: log_ndtr(nan) and ndtri_exp(y > 0) are nan.
"""

from __future__ import annotations

import math

import numpy as np

# log Phi(-a) for a = |x| is G(q) - log1p(a / K) - a^2 / 2 with q = P a / (a + K)
# in [0, P): G is smooth on [0, P], with G(0) = log(1/2). Each unit piece
# [i, i + 1] of q has one degree-7 polynomial in q - i; column i of the table
# below holds piece i, highest power first. Fitted by
# scripts/fit_normal_coefficients.py, which prints each piece's error: at most
# 4.5e-16 absolute in G, so in log Phi(-a). Piece 0's constant is log(1/2)
# rounded, so log_ndtr(0) is exact and the two halves meet in order at 0.
_MILLS_PIECES = 32  # P
_MILLS_SCALE = 4.0  # K; a power of 2, so a / K is exact
_A_CAP = 1e300  # keeps q finite at a = inf; a^2 / 2 still makes log Phi -inf there
_LOG_MILLS = np.array([
    [6.975508889436494e-12, -1.7040882976053906e-10, -1.1368063272721028e-08, 2.6103546271941954e-08, 1.923828693596408e-05, 0.00021045271272317965, -0.06848557010035727, -0.6931471805599453],
    [8.709113565470375e-12, -1.2144867644320933e-10, -1.2241655927089251e-08, -3.304869772657448e-08, 1.9225856737473062e-05, 0.0002682081045312986, -0.06800690321385702, -0.7614030450885938],
    [1.0122558687631028e-11, -6.025176864285086e-11, -1.2785522232792377e-08, -9.577377874368557e-08, 1.896912146313999e-05, 0.00032556332716301176, -0.06741300350537945, -0.8291225597442753],
    [1.1041225051421742e-11, 1.0934841811249338e-11, -1.2933203914348569e-08, -1.6025072210382813e-07, 1.8457320529430796e-05, 0.0003817675024600406, -0.06670541680004195, -0.8961911394104587],
    [1.1313033797452839e-11, 8.862783837693734e-11, -1.263536093019351e-08, -2.243660857598055e-07, 1.768759078527209e-05, 0.0004360490235713119, -0.06588721535954369, -0.9624965045494611],
    [1.0832996576681498e-11, 1.6826565077219633e-10, -1.1866682180384397e-08, -2.858173064120358e-07, 1.6665941266807496e-05, 0.00048764081280161016, -0.06496301457023514, -1.027930220196154],
    [9.565078532200026e-12, 2.4454095431679584e-10, -1.0631336312795947e-08, -3.422473685051081e-07, 1.540774947963061e-05, 0.0005358078174264675, -0.0639389366380444, -1.0923892255172107],
    [7.556713753988315e-12, 3.118887971872171e-10, -8.96597847973712e-09, -3.9140097334395303e-07, 1.3937671910961032e-05, 0.000579875137278363, -0.06282251836670884, -1.1557772992129478],
    [4.941976445844919e-12, 3.6507821213642646e-10, -6.939539010963119e-09, -4.312879111611208e-07, 1.228891006652981e-05, 0.0006192549244139518, -0.06162256358597776, -1.2180064048179735],
    [1.9312039390867505e-12, 3.998265936054226e-10, -4.649414311542785e-09, -4.6033639111617543e-07, 1.0501837073490924e-05, 0.0006534701117135939, -0.060348944631229785, -1.278997862426901],
    [-1.2124994908857076e-12, 4.1334036097069375e-10, -2.214207300644688e-09, -4.775184738284252e-07, 8.622060976576774e-06, 0.0006821731483983672, -0.05901236107674321, -1.3386832996933913],
    [-4.206582381971745e-12, 4.046885108955571e-10, 2.36269326159348e-10, -4.824319197623672e-07, 6.698068889042123e-06, 0.000705158253052449, -0.0576240672703968, -1.3970053448813127],
    [-6.786557054728278e-12, 3.74939248636061e-10, 2.572525731054058e-09, -4.753276185634324e-07, 4.778650021620977e-06, 0.0007223662128789059, -0.056195582705274714, -1.4539180376249365],
    [-8.740941298527296e-12, 3.2703014842447705e-10, 4.6769631352651084e-09, -4.5707862046917423e-07, 2.9103257406420007e-06, 0.0007338814040543596, -0.054738400575169946, -1.509386947854251],
    [-9.93730874514857e-12, 2.653905312876054e-10, 6.4539413313909035e-09, -4.2909449876837577e-07, 1.1350153642027947e-06, 0.0007399214010701239, -0.05326370981851237, -1.563389008782994],
    [-1.033503684658979e-11, 1.9537973169463604e-10, 7.837051543603882e-09, -3.931919516217672e-07, -5.11863278418138e-07, 0.0007408201917508162, -0.051782144555786294, -1.6159120845701762],
    [-9.983207107052992e-12, 1.2263614115694133e-10, 8.792771434162653e-09, -3.514379117555465e-07, -2.0027146444671002e-06, 0.0007370065343751734, -0.050303572244735216, -1.6669543059673455],
    [-9.005166954183907e-12, 5.2442610741395375e-11, 9.320276676212498e-09, -3.059840711956315e-07, -3.318435107599089e-06, 0.000728979320575431, -0.04883692844177278, -1.7165232169248374],
    [-7.57374100452631e-12, -1.0797286081337587e-11, 9.44778192830605e-09, -2.5891132545178776e-07, -4.448434721063499e-06, 0.0007172819111196556, -0.047390102189225236, -1.7646347811014995],
    [-5.882441266378197e-12, -6.390627222058572e-11, 9.226265449002828e-09, -2.1209949977659518e-07, -5.390082954362345e-06, 0.000702477295813716, -0.04596987219533954, -1.8113122992962407],
    [-4.118082195772684e-12, -1.0507598612202126e-10, 8.721714311104825e-09, -1.6713264863931814e-07, -6.147702021752055e-06, 0.0006851256304812236, -0.04458189054386007, -1.8565852872217439],
    [-2.4391223614042837e-12, -1.3381591069849482e-10, 8.007081206636445e-09, -1.2524430900356025e-07, -6.7312608513322925e-06, 0.0006657652830490919, -0.043230707970266735, -1.900488358357273],
    [-9.622497614577354e-13, -1.507498371866134e-10, 7.1549912739744395e-09, -8.730144506859432e-08, -7.1549287210676e-06, 0.0006448980469951198, -0.04191983294852041, -1.9430601496788247],
    [2.4227220900052084e-13, -1.573186711029665e-10, 6.231939894397495e-09, -5.38213364336053e-08, -7.435633066688832e-06, 0.0006229787206220794, -0.040651815982750875, -1.984342319807237],
    [1.1476956968516324e-12, -1.5545173093082117e-10, 5.2943610458065726e-09, -2.5012856980800292e-08, -7.591736758745427e-06, 0.000600408858112708, -0.039428350508568286, -2.0243786404489055],
    [1.7626181094261935e-12, -1.472599042062474e-10, 4.3865995588351546e-09, -8.325839900197533e-10, -7.641913340303855e-06, 0.0005775342066331875, -0.03825038250691771, -2.0632141937089195],
    [2.120231256873551e-12, -1.3478750490079952e-10, 3.5405492974333445e-09, 1.8953270015909652e-08, -7.604261128050775e-06, 0.0005546451652224612, -0.03711822210223116, -2.1008946805140263],
    [2.2674085315697527e-12, -1.1984060004617998e-10, 2.7765541678687887e-09, 3.470846161691123e-08, -7.4956640724320116e-06, 0.0005319795296653268, -0.0360316518332271, -2.1374658393510106],
    [2.2553688612893825e-12, -1.0389248239970821e-10, 2.1051121229136154e-09, 4.6873018682078454e-08, -7.331382138548286e-06, 0.0005097268037671958, -0.034990027752668185, -2.1729729699512026],
    [2.13282937659534e-12, -8.805478509408458e-11, 1.5289536560928636e-09, 5.591915358870359e-08, -7.124837874076433e-06, 0.0004880334355611758, -0.03399237088148153, -2.2074605534057485],
    [1.9418173260666324e-12, -7.30964501070012e-11, 1.0451534437306254e-09, 6.231776257228296e-08, -6.8875582008897614e-06, 0.000467008450365132, -0.033037447715997856, -2.2409719583273575],
    [1.7157947586666195e-12, -5.949171654510044e-11, 6.470433934740009e-10, 6.651505231617032e-08, -6.629229618432988e-06, 0.00044672907820393653, -0.03212383941803895, -2.2735492218594295],
]).T.copy()

# Wichura's AS241 (Applied Statistics 37, 1988), the coefficients of the Python
# standard library's statistics._normal_dist_inv_cdf: its central piece is a
# rational function of 0.180625 - q^2 for q = p - 1/2, |q| <= 0.425; its tails
# of r - 1.6 (r <= 5) and r - 5, r = sqrt(-log min(p, 1 - p)). The table is
# (power, numerator or denominator, piece), highest power first.
_AS241 = np.array([
    [[2.5090809287301226727e+3, 7.74545014278341407640e-4, 2.01033439929228813265e-7],
     [5.2264952788528545610e+3, 1.05075007164441684324e-9, 2.04426310338993978564e-15]],
    [[3.3430575583588128105e+4, 2.27238449892691845833e-2, 2.71155556874348757815e-5],
     [2.8729085735721942674e+4, 5.47593808499534494600e-4, 1.42151175831644588870e-7]],
    [[6.7265770927008700853e+4, 2.41780725177450611770e-1, 1.24266094738807843860e-3],
     [3.9307895800092710610e+4, 1.51986665636164571966e-2, 1.84631831751005468180e-5]],
    [[4.5921953931549871457e+4, 1.27045825245236838258e+0, 2.65321895265761230930e-2],
     [2.1213794301586595867e+4, 1.48103976427480074590e-1, 7.86869131145613259100e-4]],
    [[1.3731693765509461125e+4, 3.64784832476320460504e+0, 2.96560571828504891230e-1],
     [5.3941960214247511077e+3, 6.89767334985100004550e-1, 1.48753612908506148525e-2]],
    [[1.9715909503065514427e+3, 5.76949722146069140550e+0, 1.78482653991729133580e+0],
     [6.8718700749205790830e+2, 1.67638483018380384940e+0, 1.36929880922735805310e-1]],
    [[1.3314166789178437745e+2, 4.63033784615654529590e+0, 5.46378491116411436990e+0],
     [4.2313330701600911252e+1, 2.05319162663775882187e+0, 5.99832206555887937690e-1]],
    [[3.3871328727963666080e+0, 1.42343711074968357734e+0, 6.65790464350110377720e+0],
     [1.0, 1.0, 1.0]],
])
_AS241_SHIFT = np.array([0.0, 1.6, 5.0])
_DEEP_R = 27.3  # sqrt(745.3): AS241's range ends where exp(y) = exp(-r^2) is 0
_NEWTON_STEPS = 3
_LOG_2PI = math.log(2.0 * math.pi)


def _log_mills(a):
    """log Phi(-a) + a^2 / 2 for a >= 0 (or nan), from the _LOG_MILLS pieces."""
    w = np.minimum(a, _A_CAP) / _MILLS_SCALE
    q = (_MILLS_PIECES * w) / (1.0 + w)
    i = np.fmin(q, _MILLS_PIECES - 0.5).astype(np.intp)  # nan lands in the last piece
    u = q - i
    c = _LOG_MILLS.take(i, axis=1)
    g = c[0] * u
    for ck in c[1:-1]:
        g += ck
        g *= u
    g += c[-1]
    g -= np.log1p(w)
    return g


def log_ndtr(x):
    """log Phi(x), elementwise; the upper half is log1p(-Phi(-x))."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(all="ignore"):
        a = np.abs(x)
        lower = _log_mills(a) - (0.5 * a) * a
        return np.where(x > 0, np.log1p(-np.exp(lower)), lower)


def ndtri_exp(y):
    """The z with log Phi(z) = y, elementwise: -inf at y = -inf, +inf at 0.

    AS241 from p = exp(y), with its tail variable r = sqrt(-y) taken straight
    from y below p = 1/2 so nothing underflows. Where exp(y) is 0 (y < -745.3)
    the asymptotic inverse starts _NEWTON_STEPS Newton steps on log Phi.
    """
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(all="ignore"):
        q = np.exp(y) - 0.5
        central = np.abs(q) <= 0.425
        # log of the smaller tail: y itself below p = 1/2, log(1 - p) above
        r = np.sqrt(-np.minimum(y, np.log(-np.expm1(np.maximum(y, -math.log(2.0))))))
        piece = np.where(central, 0, (r > 5.0) + 1)
        v = np.where(central, 0.180625 - q * q, r - _AS241_SHIFT[piece])
        c = _AS241.take(piece, axis=2)
        nd = c[0] * v
        for ck in c[1:-1]:
            nd += ck
            nd *= v
        nd += c[-1]
        # the central piece is odd in q; a tail takes the sign of its side
        z = np.where(central, q, np.copysign(1.0, q)) * (nd[0] / nd[1])
        deep = r > _DEEP_R  # exp(y) = 0, or y = 0
        if deep.any():
            z = np.asarray(z)  # a 0-d product comes back a numpy scalar
            z[deep] = _deep_tail(y[deep])
        return z


def _deep_tail(y):
    """ndtri_exp where AS241 ends: y = -inf, y = 0 or y < -745.3."""
    # log Phi(z) = -z^2/2 - log(-z) - log(2 pi)/2 - z^-2 + ...: solve the first
    # three terms by one fixed-point pass, then Newton on log Phi
    t = -2.0 * y - _LOG_2PI
    z = -np.sqrt(t - np.log(t - np.log(t)))
    for _ in range(_NEWTON_STEPS):
        m = _log_mills(-z)
        # d/dz log Phi(z) = phi(z) / Phi(z) = exp(-log(2 pi)/2 - m)
        z = z - (m - 0.5 * z * z - y) * np.exp(m + 0.5 * _LOG_2PI)
    return np.where(y == 0.0, np.inf, np.where(np.isneginf(y), -np.inf, z))


def logsumexp(a) -> float:
    """log(sum(exp(a))) over every entry of a; -inf when a is empty or all -inf.

    The entries at the maximum are taken out of the sum and log1p folds in the
    rest, as scipy.special.logsumexp does, so the two agree bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return -math.inf
    top = a.max()
    if not np.isfinite(top):  # all -inf, an inf or a nan
        return float(top)
    at_top = a == top
    count = int(np.count_nonzero(at_top))
    rest = np.exp(a[~at_top] - top).sum()
    return float(np.log1p(rest / count) + math.log(count) + top)
