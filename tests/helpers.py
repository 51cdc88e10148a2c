"""Shared test fixtures: random model builders and the two oracles the
engine is checked against.

The straight-line float oracle was written first, directly from the six
recurrence equations, and deliberately avoids every helper the engine uses.
The fixed-point oracle evaluates one gate at a time with its own
re-quantizer, separately from the stacked accumulation and the element-wise
update that the fixed and hwsim datapaths share.
"""

import warnings

import numpy as np

from qasr.container import quantize_layer, quantize_output
from qasr.rnn import LstmLayerParams, OutputLayerParams, default_format


def straight_line_lstm_step(p, x, h_prev, c_prev):
    """Independent reference for one peephole-LSTM step, element by element."""
    H = p.b_i.shape[0]
    i = np.empty(H)
    f = np.empty(H)
    o = np.empty(H)
    c_tilde = np.empty(H)
    c_new = np.empty(H)
    h_new = np.empty(H)
    for n in range(H):
        z_i = np.dot(p.W_xi[n], x) + np.dot(p.W_hi[n], h_prev) + p.w_ci[n] * c_prev[n] + p.b_i[n]
        z_f = np.dot(p.W_xf[n], x) + np.dot(p.W_hf[n], h_prev) + p.w_cf[n] * c_prev[n] + p.b_f[n]
        z_c = np.dot(p.W_xc[n], x) + np.dot(p.W_hc[n], h_prev) + p.b_c[n]
        i[n] = 1.0 / (1.0 + np.exp(-z_i))
        f[n] = 1.0 / (1.0 + np.exp(-z_f))
        c_tilde[n] = np.tanh(z_c)
        c_new[n] = f[n] * c_prev[n] + i[n] * c_tilde[n]
    for n in range(H):
        z_o = np.dot(p.W_xo[n], x) + np.dot(p.W_ho[n], h_prev) + p.w_co[n] * c_new[n] + p.b_o[n]
        o[n] = 1.0 / (1.0 + np.exp(-z_o))
        h_new[n] = o[n] * np.tanh(c_new[n])
    return h_new, c_new


def _requant(acc, from_exp, scheme):
    scaled = acc * 2.0 ** (from_exp - scheme.step_exp)
    m = scheme.max_level
    return np.clip(np.sign(scaled) * np.floor(np.abs(scaled) + 0.5), -m, m)


def reference_fixed_step_levels(q, x_lev, h_lev, c_lev):
    """Independent reference for one fixed-point step on integer levels,
    gate by gate. Same arguments and result as rnn.fixed_step_levels."""
    fmt = q.fmt
    ex, eh = fmt.sig_in.step_exp, fmt.sig_out.step_exp
    ax = q.wx_lev @ np.asarray(x_lev, dtype=np.float64)
    ah = q.wh_lev @ np.asarray(h_lev, dtype=np.float64)
    gates = []
    for g in range(4):
        e = q.gate_acc_exp[g]
        acc = ax[q.gate_rows(g)] * 2.0 ** (q.wx_exp[g] + ex - e)
        acc = acc + ah[q.gate_rows(g)] * 2.0 ** (q.wh_exp[g] + eh - e)
        bias = q.bias_lev[g] * 2.0 ** (q.bias_exp[g] - e)
        gates.append(acc + (bias[:, None] if acc.ndim == 2 else bias))
    return reference_elementwise_update(q, np.concatenate(gates), c_lev)


def reference_elementwise_update(q, acc, c_lev):
    """Independent reference for the element-wise half of a step, gate by
    gate. Same arguments and result as rnn.elementwise_update."""
    fmt = q.fmt
    ec, e_act = fmt.cell.step_exp, fmt.act_exp
    c_lev = np.asarray(c_lev, dtype=np.float64)

    def gate_acc(g, c_term_lev=None):
        e = q.gate_acc_exp[g]
        a = acc[q.gate_rows(g)]
        if c_term_lev is not None:
            peep = q.peep_lev[g][:, None] if a.ndim == 2 else q.peep_lev[g]
            a = a + peep * c_term_lev * 2.0 ** (q.peep_exp[g] + ec - e)
        return a, e

    acc_i, e_i = gate_acc(0, c_lev)
    acc_f, e_f = gate_acc(1, c_lev)
    acc_ct, e_ct = gate_acc(3)
    i_lev = fmt.lut_sigmoid.apply_levels(_requant(acc_i, e_i, fmt.pre), fmt.pre.step_exp)
    f_lev = fmt.lut_sigmoid.apply_levels(_requant(acc_f, e_f, fmt.pre), fmt.pre.step_exp)
    ct_lev = fmt.lut_tanh.apply_levels(_requant(acc_ct, e_ct, fmt.pre), fmt.pre.step_exp)

    # c_t = f*c_{t-1} + i*c~ ; align the two products before re-quantizing
    e_fc = e_act + ec
    e_ic = 2 * e_act
    e_cell = min(e_fc, e_ic)
    cell_acc = f_lev * c_lev * 2.0 ** (e_fc - e_cell) + i_lev * ct_lev * 2.0 ** (e_ic - e_cell)
    c_new = _requant(cell_acc, e_cell, fmt.cell)

    acc_o, e_o = gate_acc(2, c_new)
    o_lev = fmt.lut_sigmoid.apply_levels(_requant(acc_o, e_o, fmt.pre), fmt.pre.step_exp)
    tanh_c = fmt.lut_tanh.apply_levels(c_new, ec)
    h_new = _requant(o_lev * tanh_c, 2 * e_act, fmt.sig_out)
    return h_new, c_new


def make_layer(d, h, rng, weight_scale=1.0):
    def mat(rows, cols, fan):
        return rng.normal(0.0, weight_scale / np.sqrt(fan), size=(rows, cols))

    return LstmLayerParams(
        W_xi=mat(h, d, d), W_xf=mat(h, d, d), W_xo=mat(h, d, d), W_xc=mat(h, d, d),
        W_hi=mat(h, h, h), W_hf=mat(h, h, h), W_ho=mat(h, h, h), W_hc=mat(h, h, h),
        w_ci=rng.normal(0.0, 0.1, size=h),
        w_cf=rng.normal(0.0, 0.1, size=h),
        w_co=rng.normal(0.0, 0.1, size=h),
        b_i=rng.normal(0.0, 0.1, size=h),
        b_f=rng.normal(0.0, 0.1, size=h),
        b_o=rng.normal(0.0, 0.1, size=h),
        b_c=rng.normal(0.0, 0.1, size=h),
    )


def make_output(h, labels, rng):
    return OutputLayerParams(
        W=rng.normal(0.0, 1.0 / np.sqrt(h), size=(labels, h)),
        b=rng.normal(0.0, 0.1, size=labels),
    )


def zero_layer(d, h):
    z = LstmLayerParams(
        W_xi=np.zeros((h, d)), W_xf=np.zeros((h, d)), W_xo=np.zeros((h, d)),
        W_xc=np.zeros((h, d)),
        W_hi=np.zeros((h, h)), W_hf=np.zeros((h, h)), W_ho=np.zeros((h, h)),
        W_hc=np.zeros((h, h)),
        w_ci=np.zeros(h), w_cf=np.zeros(h), w_co=np.zeros(h),
        b_i=np.zeros(h), b_f=np.zeros(h), b_o=np.zeros(h), b_c=np.zeros(h),
    )
    return z


def quantize_model(layers, output, weight_bits=6, sig_in_exp=-7, **fmt_kw):
    """Attach quantized twins: first layer uses sig_in_exp, the rest chain
    on the default hidden-signal scheme."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero test layers trip the all-zero fallback
        for li, p in enumerate(layers):
            fmt = default_format(sig_in_exp=sig_in_exp if li == 0 else -7, **fmt_kw)
            p.quantized = quantize_layer(p, fmt, weight_bits=weight_bits)
        if output is not None:
            output.quantized = quantize_output(
                output, layers[-1].quantized.fmt.sig_out, weight_bits=weight_bits
            )
    return layers, output
