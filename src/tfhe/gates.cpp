/**
 * @file
 * Bootstrapped gate implementation.
 */

#include "tfhe/gates.h"

namespace strix {

namespace {

/** linear combo -> sign bootstrap -> keyswitch. */
LweCiphertext
signBootstrap(const ServerContext &ctx, const LweCiphertext &linear)
{
    return ctx.bootstrap(linear, signTestVector(ctx.params().N));
}

Torus32
eighth(int mult)
{
    return encodeMessage(mult, 8);
}

} // namespace

TorusPolynomial
signTestVector(uint32_t big_n)
{
    TorusPolynomial tv(big_n);
    const Torus32 mu = encodeMessage(1, 8);
    for (uint32_t j = 0; j < big_n; ++j)
        tv[j] = mu;
    return tv;
}

LweCiphertext
gateNand(const ServerContext &ctx, const LweCiphertext &a,
         const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, eighth(1));
    lin.subAssign(a);
    lin.subAssign(b);
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateAnd(const ServerContext &ctx, const LweCiphertext &a,
        const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, eighth(-1));
    lin.addAssign(a);
    lin.addAssign(b);
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateOr(const ServerContext &ctx, const LweCiphertext &a,
       const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, eighth(1));
    lin.addAssign(a);
    lin.addAssign(b);
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateNor(const ServerContext &ctx, const LweCiphertext &a,
        const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, eighth(-1));
    lin.subAssign(a);
    lin.subAssign(b);
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateXor(const ServerContext &ctx, const LweCiphertext &a,
        const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, encodeMessage(1, 4));
    LweCiphertext sum = a;
    sum.addAssign(b);
    sum.scalarMulAssign(2);
    lin.addAssign(sum);
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateXnor(const ServerContext &ctx, const LweCiphertext &a,
         const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, encodeMessage(-1, 4));
    LweCiphertext sum = a;
    sum.addAssign(b);
    sum.scalarMulAssign(2);
    lin.subAssign(sum);
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateAndNY(const ServerContext &ctx, const LweCiphertext &a,
          const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, eighth(-1));
    lin.subAssign(a);
    lin.addAssign(b);
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateAndYN(const ServerContext &ctx, const LweCiphertext &a,
          const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, eighth(-1));
    lin.addAssign(a);
    lin.subAssign(b);
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateOrNY(const ServerContext &ctx, const LweCiphertext &a,
         const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, eighth(1));
    lin.subAssign(a);
    lin.addAssign(b);
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateOrYN(const ServerContext &ctx, const LweCiphertext &a,
         const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, eighth(1));
    lin.addAssign(a);
    lin.subAssign(b);
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateNot(const LweCiphertext &a)
{
    LweCiphertext out = a;
    out.negate();
    return out;
}

LweCiphertext
gateMux(const ServerContext &ctx, const LweCiphertext &a,
        const LweCiphertext &b, const LweCiphertext &c)
{
    const TfheParams &p = ctx.params();
    TorusPolynomial tv = signTestVector(p.N);

    // u1 = PBS(a AND b), u2 = PBS(not a AND c), both kept at
    // dimension k*N; one keyswitch at the end (as in the TFHE lib).
    LweCiphertext lin1 = LweCiphertext::trivial(p.n, eighth(-1));
    lin1.addAssign(a);
    lin1.addAssign(b);
    LweCiphertext u1 = programmableBootstrap(lin1, tv, ctx.bsk());

    LweCiphertext lin2 = LweCiphertext::trivial(p.n, eighth(-1));
    lin2.subAssign(a);
    lin2.addAssign(c);
    LweCiphertext u2 = programmableBootstrap(lin2, tv, ctx.bsk());

    u1.addAssign(u2);
    LweCiphertext bias =
        LweCiphertext::trivial(u1.dim(), eighth(1));
    u1.addAssign(bias);
    return keySwitch(u1, ctx.ksk());
}

} // namespace strix
