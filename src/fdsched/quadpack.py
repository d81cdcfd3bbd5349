"""QUADPACK's QAGS in plain Python: adaptive Gauss-Kronrod quadrature with
epsilon extrapolation, for a finite interval and an absolute tolerance.

A statement-for-statement port of the public-domain Fortran routines
``dqagse`` (the main routine), ``dqk21`` (the 21-point Gauss-Kronrod rule),
``dqpsrt`` (the error ordering) and ``dqelg`` (the epsilon algorithm) of
R. Piessens, E. de Doncker-Kapenga, C. W. Ueberhuber and D. K. Kahaner,
*QUADPACK*, Springer 1983 (netlib ``quadpack``).  It runs the same float
operations in the same order and calls the integrand at the same nodes, so
:func:`qags` returns the same value and error estimate, bit for bit, as
``scipy.integrate.quad(f, a, b, epsabs=epsabs, epsrel=0, limit=LIMIT)``
(checked against scipy 1.17.1 in ``tests/test_quadpack.py``).  Sums are
plain float additions in the Fortran order: no ``sum``, ``fsum`` or numpy.

The relative tolerance is always 0 and the subdivision limit is the module
constant :data:`LIMIT`, so the routine has no options.  The subinterval
lists and the extrapolation table keep the Fortran's 1-based indices;
index 0 is unused.
"""

_EPMACH = 2.0 ** -52                # d1mach(4)
_UFLOW = 2.2250738585072014e-308    # d1mach(1): least positive normal float
_OFLOW = 1.7976931348623157e308     # d1mach(2): largest float
LIMIT = 500                         # most subintervals

# 21-point Kronrod abscissae and weights, 10-point Gauss weights (dqk21).
_XGK = (None,
        0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (None,
        0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208745279860, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (None,
       0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
# (index, Kronrod abscissa, Kronrod weight, Gauss weight) of the Gauss
# nodes 2, 4, ..., 10, then (index, abscissa, weight) of the Kronrod nodes
# 1, 3, ..., 9, in the order dqk21 visits them; the index is 0-based here.
_GAUSS = tuple((j - 1, _XGK[j], _WGK[j], _WG[j // 2]) for j in (2, 4, 6, 8, 10))
_KRONROD = tuple((j - 1, _XGK[j], _WGK[j]) for j in (1, 3, 5, 7, 9))


def _qk21(f, a, b):
    """dqk21: ``(result, abserr, resabs, resasc)`` of the 21-point rule on [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = f(centr)
    resk = _WGK[11] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j, xgk, wgk, wg in _GAUSS:
        absc = hlgth * xgk
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
    for j, xgk, wgk in _KRONROD:
        absc = hlgth * xgk
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[11] * abs(fc - reskh)
    for wgk, fval1, fval2 in zip(_WGK[1:11], fv1, fv2):
        resasc = resasc + wgk * (abs(fval1 - reskh) + abs(fval2 - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, errmax, elist, iord, nrmax):
    """dqpsrt: keep ``iord`` in descending order of ``elist`` and return the
    next ``(maxerr, errmax, nrmax)``, the subinterval to bisect."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        if nrmax != 1:
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        for i in range(ibeg, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmin by traversing the list bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: one step of the epsilon algorithm on ``epstab[1..n]``, which
    it updates in place with ``res3la``; returns ``(n, result, abserr, nres)``."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: convergence
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 1
    if (num // 2) * 2 == num:
        ib = 2
    ie = newelm + 1
    for _ in range(ie):
        ib2 = ib + 2
        epstab[ib] = epstab[ib2]
        ib = ib2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def qags(f, a, b, epsabs):
    """dqagse with ``epsrel = 0`` and ``limit = LIMIT``: the integral of
    ``f`` over [a, b] and its estimated absolute error, ``(result, abserr)``.

    ``abserr > epsabs`` means the tolerance was not reached.  With
    ``epsrel = 0`` dqagse's error bounds ``errbnd`` and ``ertest`` are
    ``epsabs`` throughout, so ``epsabs`` stands for them.  Its ``ier`` flag
    is not returned, so the statements after the main loop that only set
    it (the divergence test) are left out.
    """
    if not epsabs > 0.0:
        raise ValueError(f"epsabs must be > 0 when epsrel = 0, got {epsabs!r}")
    limit = LIMIT
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    alist[1] = a
    blist[1] = b

    # first approximation to the integral
    ier = ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > epsabs:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= epsabs and abserr != resabs) or abserr == 0.0:
        return result, abserr

    # initialization
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = correc = 0.0

    # main loop; "break" is dqagse's jump to label 100, "return
    # _total(...)" its jump to label 115
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)

        # improve previous approximations to integral and error, and test
        # for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2

        # test for roundoff error and eventually set error flag
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        # the number of subintervals equals limit
        if last == limit:
            ier = 1
        # bad integrand behaviour at a point of the integration range
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4

        # append the newly created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2

        # keep the error estimates in descending order and select the
        # subinterval with the nrmax-th largest error (bisected next)
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, errmax, elist, iord, nrmax)
        if errsum <= epsabs:
            return _total(rlist, last), errsum
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= epsabs):
            # the smallest interval has the largest error: before
            # bisecting, decrease the sum of the errors over the larger
            # intervals (erlarg) and extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            if abserr <= epsabs:
                break

        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set final result and error estimate (label 100)
    if abserr == _OFLOW:
        return _total(rlist, last), errsum
    if ier + ierro == 0:
        return result, abserr
    if ierro == 3:
        abserr = abserr + correc
    if result != 0.0 and area != 0.0:
        if abserr / abs(result) > errsum / abs(area):
            return _total(rlist, last), errsum
    elif abserr > errsum:
        return _total(rlist, last), errsum
    return result, abserr


def _total(rlist, last):
    """Label 115: the sum of the subinterval results, in list order."""
    result = 0.0
    for k in range(1, last + 1):
        result = result + rlist[k]
    return result
