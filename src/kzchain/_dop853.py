"""Dormand-Prince 8(5,3) with its 7th-order dense output.

A forward-only port of scipy.integrate.solve_ivp(fun, (t0, t_end), y0,
method="DOP853", t_eval=times, rtol=rtol, atol=atol): the same initial
step selection, the same 12-stage step, the same E5/E3 error norm, the
same step control (SAFETY, MIN_FACTOR, MAX_FACTOR, no growth right after
a rejected step) and the same dense output, evaluated at every sample
time a step covers, a sample on a step boundary taken from the step that
ends there.  Every product is formed as scipy forms it, on the same stage
layout, so the states equal solve_ivp's bit for bit (tests/test_oracle.py
compares them).  The oracle uses it so that its runs never import
scipy.integrate, which alone loads scipy.sparse.linalg, scipy.optimize,
scipy.special and scipy.linalg.

It covers what the oracle needs and nothing else: a real float64 state,
increasing time, scalar tolerances and sorted sample times; no events,
complex states, max_step or vectorised right-hand sides.

The tableau is that of Prince & Dormand, J. Comput. Appl. Math. 7 (1981)
67, with the three extra stages and the coefficients D of the dense
output of Hairer, Norsett & Wanner, Solving Ordinary Differential
Equations I, Sec. II.5 and their Fortran DOP853, as scipy lists them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StepSizeError", "dop853"]

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
# the error estimate is of order 7, so a step scales as error^(-1/8)
ERROR_EXPONENT = -1 / 8

C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, [0]] = [5.26001519587677318785587544488e-2]
A[2, [0, 1]] = [1.97250569845378994544595329183e-2,
                5.91751709536136983633785987549e-2]
A[3, [0, 2]] = [2.95875854768068491816892993775e-2,
                8.87627564304205475450678981324e-2]
A[4, [0, 2, 3]] = [2.41365134159266685502369798665e-1,
                   -8.84549479328286085344864962717e-1,
                   9.24834003261792003115737966543e-1]
A[5, [0, 3, 4]] = [3.7037037037037037037037037037e-2,
                   1.70828608729473871279604482173e-1,
                   1.25467687566822425016691814123e-1]
A[6, [0, 3, 4, 5]] = [3.7109375e-2,
                      1.70252211019544039314978060272e-1,
                      6.02165389804559606850219397283e-2,
                      -1.7578125e-2]
A[7, [0, 3, 4, 5, 6]] = [3.70920001185047927108779319836e-2,
                         1.70383925712239993810214054705e-1,
                         1.07262030446373284651809199168e-1,
                         -1.53194377486244017527936158236e-2,
                         8.27378916381402288758473766002e-3]
A[8, [0, 3, 4, 5, 6, 7]] = [6.24110958716075717114429577812e-1,
                            -3.36089262944694129406857109825,
                            -8.68219346841726006818189891453e-1,
                            2.75920996994467083049415600797e1,
                            2.01540675504778934086186788979e1,
                            -4.34898841810699588477366255144e1]
A[9, [0, 3, 4, 5, 6, 7, 8]] = [4.77662536438264365890433908527e-1,
                               -2.48811461997166764192642586468,
                               -5.90290826836842996371446475743e-1,
                               2.12300514481811942347288949897e1,
                               1.52792336328824235832596922938e1,
                               -3.32882109689848629194453265587e1,
                               -2.03312017085086261358222928593e-2]
A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [-9.3714243008598732571704021658e-1,
                                   5.18637242884406370830023853209,
                                   1.09143734899672957818500254654,
                                   -8.14978701074692612513997267357,
                                   -1.85200656599969598641566180701e1,
                                   2.27394870993505042818970056734e1,
                                   2.49360555267965238987089396762,
                                   -3.0467644718982195003823669022]
A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [2.27331014751653820792359768449,
                                       -1.05344954667372501984066689879e1,
                                       -2.00087205822486249909675718444,
                                       -1.79589318631187989172765950534e1,
                                       2.79488845294199600508499808837e1,
                                       -2.85899827713502369474065508674,
                                       -8.87285693353062954433549289258,
                                       1.23605671757943030647266201528e1,
                                       6.43392746015763530355970484046e-1]
# row 12 holds the weights B of the 8th-order solution
A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [5.42937341165687622380535766363e-2,
                                     4.45031289275240888144113950566,
                                     1.89151789931450038304281599044,
                                     -5.8012039600105847814672114227,
                                     3.1116436695781989440891606237e-1,
                                     -1.52160949662516078556178806805e-1,
                                     2.01365400804030348374776537501e-1,
                                     4.47106157277725905176885569043e-2]
# rows 13-15: the extra stages of the dense output
A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [5.61675022830479523392909219681e-2,
                                      2.53500210216624811088794765333e-1,
                                      -2.46239037470802489917441475441e-1,
                                      -1.24191423263816360469010140626e-1,
                                      1.5329179827876569731206322685e-1,
                                      8.20105229563468988491666602057e-3,
                                      7.56789766054569976138603589584e-3,
                                      -8.298e-3]
A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [3.18346481635021405060768473261e-2,
                                       2.83009096723667755288322961402e-2,
                                       5.35419883074385676223797384372e-2,
                                       -5.49237485713909884646569340306e-2,
                                       -1.08347328697249322858509316994e-4,
                                       3.82571090835658412954920192323e-4,
                                       -3.40465008687404560802977114492e-4,
                                       1.41312443674632500278074618366e-1]
A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [-4.28896301583791923408573538692e-1,
                                      -4.69762141536116384314449447206,
                                      7.68342119606259904184240953878,
                                      4.06898981839711007970213554331,
                                      3.56727187455281109270669543021e-1,
                                      -1.39902416515901462129418009734e-3,
                                      2.9475147891527723389556272149,
                                      -9.15095847217987001081870187138]

B = A[N_STAGES, :N_STAGES]

# E3 = B minus the 3rd-order weights, formed as the difference scipy forms
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [0.1312004499419488073250102996e-1,
                                  -0.1225156446376204440720569753e+1,
                                  -0.4957589496572501915214079952,
                                  0.1664377182454986536961530415e+1,
                                  -0.3503288487499736816886487290,
                                  0.3341791187130174790297318841,
                                  0.8192320648511571246570742613e-1,
                                  -0.2235530786388629525884427845e-1]

# the dense output's coefficients past its first three, which come from
# the step's end points and end slopes
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
_D_COLUMNS = [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]
D[0, _D_COLUMNS] = [-0.84289382761090128651353491142e+1,
                    0.56671495351937776962531783590,
                    -0.30689499459498916912797304727e+1,
                    0.23846676565120698287728149680e+1,
                    0.21170345824450282767155149946e+1,
                    -0.87139158377797299206789907490,
                    0.22404374302607882758541771650e+1,
                    0.63157877876946881815570249290,
                    -0.88990336451333310820698117400e-1,
                    0.18148505520854727256656404962e+2,
                    -0.91946323924783554000451984436e+1,
                    -0.44360363875948939664310572000e+1]
D[1, _D_COLUMNS] = [0.10427508642579134603413151009e+2,
                    0.24228349177525818288430175319e+3,
                    0.16520045171727028198505394887e+3,
                    -0.37454675472269020279518312152e+3,
                    -0.22113666853125306036270938578e+2,
                    0.77334326684722638389603898808e+1,
                    -0.30674084731089398182061213626e+2,
                    -0.93321305264302278729567221706e+1,
                    0.15697238121770843886131091075e+2,
                    -0.31139403219565177677282850411e+2,
                    -0.93529243588444783865713862664e+1,
                    0.35816841486394083752465898540e+2]
D[2, _D_COLUMNS] = [0.19985053242002433820987653617e+2,
                    -0.38703730874935176555105901742e+3,
                    -0.18917813819516756882830838328e+3,
                    0.52780815920542364900561016686e+3,
                    -0.11573902539959630126141871134e+2,
                    0.68812326946963000169666922661e+1,
                    -0.10006050966910838403183860980e+1,
                    0.77771377980534432092869265740,
                    -0.27782057523535084065932004339e+1,
                    -0.60196695231264120758267380846e+2,
                    0.84320405506677161018159903784e+2,
                    0.11992291136182789328035130030e+2]
D[3, _D_COLUMNS] = [-0.25693933462703749003312586129e+2,
                    -0.15418974869023643374053993627e+3,
                    -0.23152937917604549567536039109e+3,
                    0.35763911791061412378285349910e+3,
                    0.93405324183624310003907691704e+2,
                    -0.37458323136451633156875139351e+2,
                    0.10409964950896230045147246184e+3,
                    0.29840293426660503123344363579e+2,
                    -0.43533456590011143754432175058e+2,
                    0.96324553959188282948394950600e+2,
                    -0.39177261675615439165231486172e+2,
                    -0.14972683625798562581422125276e+3]


class StepSizeError(RuntimeError):
    """The step size fell below ten float spacings of the current time."""


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol) -> float:
    """Hairer, Norsett & Wanner's starting step (Sec. II.4): an Euler
    probe of size h0 estimates the second derivative."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-ERROR_EXPONENT)
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K):
    """One 12-stage step of size h from (t, y) with slope f; the stages,
    and the slope at the new point, go into the rows of K."""
    K[0] = f
    for s, (a, c) in enumerate(zip(A[1:N_STAGES, :N_STAGES], C[1:N_STAGES]),
                               start=1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(K[:-1].T, B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _error_norm(K, h, scale) -> float:
    """RMS of the 5th-order error estimate, damped by the 3rd-order one
    where they disagree (the DOP853 estimator)."""
    err5 = np.dot(K.T, E5) / scale
    err3 = np.dot(K.T, E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _dense_coefficients(fun, t_old, y_old, y, f, h, K_ext) -> np.ndarray:
    """The dense output's coefficients over the step of size h from
    (t_old, y_old) to y with end slope f; the three extra stages go into
    rows 13-15 of K_ext."""
    for s, (a, c) in enumerate(zip(A[N_STAGES + 1:], C[N_STAGES + 1:]),
                               start=N_STAGES + 1):
        dy = np.dot(K_ext[:s].T, a[:s]) * h
        K_ext[s] = fun(t_old + c * h, y_old + dy)
    F = np.empty((INTERPOLATOR_POWER, y.size))
    f_old = K_ext[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(D, K_ext)
    return F


def _dense_eval(F, t_old, h, y_old, ts) -> np.ndarray:
    """The interpolant at the times ts, shape (len(ts), y_old.size)."""
    x = ((ts - t_old) / h)[:, None]
    y = np.zeros((len(ts), y_old.size))
    for i, f in enumerate(reversed(F)):
        y += f
        if i % 2 == 0:
            y *= x
        else:
            y *= 1 - x
    y += y_old
    return y


def dop853(fun, t0: float, y0: np.ndarray, times: np.ndarray,
           rtol: float, atol: float) -> np.ndarray:
    """Integrate dy/dt = fun(t, y) from (t0, y0) to times[-1] > t0.

    fun returns a float64 array shaped like y0; times are strictly
    increasing in [t0, times[-1]].  Returns the state at each sample time,
    shape (len(times), y0.size): solve_ivp's `y.T` for the same call.
    Raises StepSizeError when a step would fall below ten float spacings
    of the current time.
    """
    times = np.asarray(times, dtype=float)
    t, t_bound = float(t0), float(times[-1])
    y = np.asarray(y0, dtype=float)
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
    K_ext = np.empty((N_STAGES_EXTENDED, y.size))
    K = K_ext[:N_STAGES + 1]
    out = np.empty((times.size, y.size))
    done = 0
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeError(
                    "Required step size is less than spacing between numbers.")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _rk_step(fun, t, y, f, h, K)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K, h, scale)
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0 else
                          min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        # a sample on the step's end belongs to this step
        end = np.searchsorted(times, t, side="right")
        if end > done:
            F = _dense_coefficients(fun, t_old, y_old, y, f, h, K_ext)
            out[done:end] = _dense_eval(F, t_old, h, y_old, times[done:end])
            done = end
    return out
