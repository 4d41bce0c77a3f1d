"""The search engine's propagation in Python, the reference that
tests/test_native_propagate.py compares propagate in homfactor/_native.c
with, state for state, as numpy_root.py is the root pass's reference.

propagate(dom, trail, queue, props) runs on an engine's own lists, like
the C function without its word count, since a Python int mask has any
width: it pops the queued variables, runs each one's compiled entries, and
returns False on a wipeout; _check_table checks an entry of arity 3 or
more.
"""

from homfactor.solver import _EACH, _PAIR, _PRE, _ROW, _restrict


def _check_table(dom, trail, queue, ins, out, table, strides) -> bool:
    """One constraint of arity 3 or more, on an engine's lists: with every
    input fixed, narrow the output to its image; with one free input
    (repeats allowed), keep the values whose image lies in the output's
    domain, and the images."""
    idx_fixed = 0
    free_var = -1
    free_stride = 0
    for w, stride in zip(ins, strides):
        dw = dom[w]
        if not dw & (dw - 1):
            idx_fixed += (dw.bit_length() - 1) * stride
        elif w == free_var:
            free_stride += stride
        elif free_var == -1:
            free_var = w
            free_stride = stride
        else:
            return True  # two distinct free inputs: checked later
    if free_var == -1:
        return _restrict(dom, trail, queue, out, dom[out] & table[idx_fixed])
    rest = dom[free_var]
    dout = dom[out]
    allowed_y = allowed_out = 0
    while rest:
        low = rest & -rest
        rest ^= low
        v = table[idx_fixed + (low.bit_length() - 1) * free_stride]
        if free_var == out:
            if low & v:
                allowed_y |= low
        elif dout & v:
            allowed_y |= low
            allowed_out |= v
    if not _restrict(dom, trail, queue, free_var, allowed_y):
        return False
    return free_var == out or _restrict(dom, trail, queue, out, allowed_out)


def propagate(dom, trail, queue, props) -> bool:
    """Propagate the queued variables to a fixpoint; False on a wipeout.
    A variable is queued once, when its domain becomes a singleton, so
    each popped variable is newly fixed and reaches its entries once;
    after a fixpoint, the variables with more than one value left are
    exactly the unassigned ones. The queue is a stack and a variable's
    entries run side condition first, then in ascending constraint
    order."""
    while queue:
        v = queue.pop()
        a = dom[v].bit_length() - 1
        for kind, i, j, tab, aux in props[v]:
            # each entry ends in narrowing one variable x from dx to m
            if kind == _ROW:
                x, dx, dw = i, dom[i], dom[j]
                if not dw & (dw - 1):
                    m = dx & tab[a][dw.bit_length() - 1]
                else:
                    # j free: keep the values whose image is in i's domain
                    if not dx & (dx - 1):
                        ay, m = dw & aux[a][dx.bit_length() - 1], dx
                    else:
                        row = tab[a]
                        ay = m = 0
                        rest = dw
                        while rest:
                            low = rest & -rest
                            rest ^= low
                            c = row[low.bit_length() - 1]
                            if dx & c:
                                ay |= low
                                m |= c
                    if not ay:
                        return False
                    if ay != dw:
                        trail.append((j, dw))
                        dom[j] = ay
                        if not ay & (ay - 1):
                            queue.append(j)
            elif kind == _PRE:
                x, dx = i, dom[i]
                m = dx & tab[a]
            elif kind == _PAIR:
                d1, d2 = dom[i], dom[j]
                if d1 & (d1 - 1):
                    if d2 & (d2 - 1):
                        continue  # two free inputs: checked later
                    x, dx, m = i, d1, d1 & aux[d2.bit_length() - 1][a]
                elif d2 & (d2 - 1):
                    x, dx, m = j, d2, d2 & tab[d1.bit_length() - 1][a]
                elif tab[d1.bit_length() - 1][a] & d2:
                    continue
                else:
                    return False
            elif kind == _EACH:
                mask = aux[a]
                for x in tab[a]:
                    dx = dom[x]
                    m = dx & mask
                    if m != dx and x != v:
                        if not m:
                            return False
                        trail.append((x, dx))
                        dom[x] = m
                        if not m & (m - 1):
                            queue.append(x)
                continue
            elif _check_table(dom, trail, queue, i, j, tab, aux):
                continue
            else:
                return False
            if m != dx:
                if not m:
                    return False
                trail.append((x, dx))
                dom[x] = m
                if not m & (m - 1):
                    queue.append(x)
    return True
