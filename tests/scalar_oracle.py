"""Straight-line scalar-loop re-implementation of the full rating model.

Everything here is plain Python floats and index loops: embedding lookup,
same-length convolution with zero padding, bilinear attention logits, masked
softmax, both pooling levels, and the factorization machine as the literal
double sum. Deliberately shares no code with the package so it can serve as
an independent oracle for the vectorized forward pass.
"""

import math


def _relu(x):
    return x if x > 0.0 else 0.0


def _query(side_w, side_b, id_vec, attn_dim, id_dim):
    out = []
    for p in range(attn_dim):
        acc = float(side_b[p])
        for q in range(id_dim):
            acc += float(side_w[p, q]) * id_vec[q]
        out.append(_relu(acc))
    return out


def _softmax(logits):
    mx = max(logits)
    exps = [math.exp(g - mx) for g in logits]
    z = sum(exps)
    return [e / z for e in exps]


def _encode_side(params, side, id_emb, owner, store, partner, exclude):
    dims = params.dims
    t_len = store.tokens.shape[2]
    n_rev = store.tokens.shape[1]
    half = (dims.window - 1) // 2
    id_vec = [float(id_emb[owner, q]) for q in range(dims.id_dim)]
    q_word = _query(side.word_query_w, side.word_query_b, id_vec,
                    dims.attn_dim, dims.id_dim)
    q_review = _query(side.review_query_w, side.review_query_b, id_vec,
                      dims.attn_dim, dims.id_dim)

    review_vecs = []
    keep = []
    for n in range(n_rev):
        if exclude and int(store.partner[owner, n]) == partner:
            continue_row = False
        else:
            continue_row = bool(store.partner[owner, n] >= 0)
        keep.append(continue_row)

        features = [[0.0] * t_len for _ in range(dims.num_filters)]
        for j in range(dims.num_filters):
            for t in range(t_len):
                acc = float(side.conv_b[j])
                for c in range(dims.window):
                    src = t + c - half
                    if 0 <= src < t_len:
                        tok = int(store.tokens[owner, n, src])
                        for d in range(dims.word_dim):
                            acc += float(side.conv_w[j, c * dims.word_dim + d]) \
                                * float(params.word_emb[tok, d])
                if params.conv_activation == "relu":
                    features[j][t] = _relu(acc)
                else:
                    features[j][t] = math.tanh(acc)

        unmasked = [t for t in range(t_len)
                    if continue_row and bool(store.tokens[owner, n, t] != 0)]
        if unmasked:
            logits = []
            for t in unmasked:
                g = 0.0
                for p in range(dims.attn_dim):
                    paired = 0.0
                    for j in range(dims.num_filters):
                        paired += float(side.word_attn[p, j]) * features[j][t]
                    g += q_word[p] * paired
                logits.append(g)
            alpha = _softmax(logits)
            vec = [sum(alpha[k] * features[j][unmasked[k]]
                       for k in range(len(unmasked)))
                   for j in range(dims.num_filters)]
        else:
            vec = [0.0] * dims.num_filters
        review_vecs.append(vec)

    real = [n for n in range(n_rev) if keep[n]]
    if not real:
        return [0.0] * dims.num_filters
    logits = []
    for n in real:
        e = 0.0
        for p in range(dims.attn_dim):
            paired = 0.0
            for j in range(dims.num_filters):
                paired += float(side.review_attn[p, j]) * review_vecs[n][j]
            e += q_review[p] * paired
        logits.append(e)
    beta = _softmax(logits)
    return [sum(beta[k] * review_vecs[real[k]][j] for k in range(len(real)))
            for j in range(dims.num_filters)]


def scalar_forward(params, user, item, user_store, item_store,
                   exclude_target=False):
    """Rating for one pair, computed entirely with scalar loops."""
    p_user = _encode_side(params, params.user, params.user_id_emb, user,
                          user_store, item, exclude_target)
    p_item = _encode_side(params, params.item, params.item_id_emb, item,
                          item_store, user, exclude_target)
    o = p_user + p_item

    rating = float(params.fm.bias)
    for a in range(len(o)):
        rating += float(params.fm.linear[a]) * o[a]
    for a in range(len(o)):
        for b in range(a + 1, len(o)):
            inner = 0.0
            for f in range(params.dims.fm_dim):
                inner += float(params.fm.factors[a, f]) * float(params.fm.factors[b, f])
            rating += inner * o[a] * o[b]
    return rating
