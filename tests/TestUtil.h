//===- tests/TestUtil.h - Shared fixtures for the test suite ----*- C++ -*-===//
//
// Part of the fast-transducers project (see src/support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Signatures, automata, and transducers used across the test suite.  They
/// mirror the paper's running examples: BT (Example 2), BBT (Example 4),
/// IList (Figure 8), and HtmlE (Figure 2).
///
//===----------------------------------------------------------------------===//

#ifndef FAST_TESTS_TESTUTIL_H
#define FAST_TESTS_TESTUTIL_H

#include "automata/Determinize.h"
#include "transducers/Ops.h"
#include "transducers/Run.h"
#include "transducers/Session.h"
#include "trees/RandomTrees.h"
#include "trees/TreeText.h"

#include <gtest/gtest.h>

namespace fast::test {

/// `type BT [i : Int] { L(0), N(2) }` (Example 2).
inline SignatureRef makeBtSig() {
  return TreeSignature::create("BT", {{"i", Sort::Int}},
                               {{"L", 0}, {"N", 2}});
}

/// `type BBT [b : Bool] { L(0), N(2) }` (Example 4).
inline SignatureRef makeBbtSig() {
  return TreeSignature::create("BBT", {{"b", Sort::Bool}},
                               {{"L", 0}, {"N", 2}});
}

/// `type IList [i : Int] { nil(0), cons(1) }` (Figure 8).
inline SignatureRef makeIListSig() {
  return TreeSignature::create("IList", {{"i", Sort::Int}},
                               {{"nil", 0}, {"cons", 1}});
}

/// `type HtmlE [tag : String] { nil(0), val(1), attr(2), node(3) }`
/// (Figure 2, line 2).
inline SignatureRef makeHtmlSig() {
  return TreeSignature::create(
      "HtmlE", {{"tag", Sort::String}},
      {{"nil", 0}, {"val", 1}, {"attr", 2}, {"node", 3}});
}

/// `0 <= (x+2)*2^62 + (x+1)*2^62 + x*2^62` over integer attribute \p X:
/// satisfiable (x = 0), but the built-in decision procedure overflows its
/// Rational arithmetic on it and throws ArithmeticError.
inline TermRef makeOverflowingGuard(TermFactory &F, TermRef X) {
  TermRef P62 = F.intConst(int64_t(1) << 62);
  auto Scaled = [&](int64_t K) {
    return F.mkMul(F.mkAdd(X, F.intConst(K)), P62);
  };
  std::vector<TermRef> Sum = {Scaled(2), Scaled(1), Scaled(0)};
  return F.mkLe(F.intConst(0), F.mkAdd(Sum));
}

/// Builds a BT leaf `L[i]`.
inline TreeRef btLeaf(Session &S, const SignatureRef &Sig, int64_t I) {
  return S.Trees.makeLeaf(Sig, *Sig->findConstructor("L"),
                          {Value::integer(I)});
}

/// Builds a BT node `N[i](l, r)`.
inline TreeRef btNode(Session &S, const SignatureRef &Sig, int64_t I,
                      TreeRef L, TreeRef R) {
  return S.Trees.make(Sig, *Sig->findConstructor("N"), {Value::integer(I)},
                      {L, R});
}

/// Builds an IList from a vector of ints: cons[v0](cons[v1](... nil[0])).
inline TreeRef makeIList(Session &S, const SignatureRef &Sig,
                         const std::vector<int64_t> &Values) {
  unsigned Nil = *Sig->findConstructor("nil");
  unsigned Cons = *Sig->findConstructor("cons");
  TreeRef List = S.Trees.makeLeaf(Sig, Nil, {Value::integer(0)});
  for (auto It = Values.rbegin(); It != Values.rend(); ++It)
    List = S.Trees.make(Sig, Cons, {Value::integer(*It)}, {List});
  return List;
}

/// Reads an IList back into a vector of ints; fails the test on shape
/// mismatch.
inline std::vector<int64_t> readIList(TreeRef List) {
  std::vector<int64_t> Values;
  while (List->ctorName() == "cons") {
    Values.push_back(List->attr(0).getInt());
    List = List->child(0);
  }
  EXPECT_EQ(List->ctorName(), "nil");
  return Values;
}

/// `lang p : BT { L() where (i > 0) | N(x, y) given (p x) (p y) }`
/// — all labels positive (Example 2's p).
inline TreeLanguage makeAllPositiveLang(Session &S, const SignatureRef &Sig) {
  auto A = std::make_shared<Sta>(Sig);
  unsigned P = A->addState("p");
  TermRef I = Sig->attrTerm(S.Terms, 0);
  A->addRule(P, *Sig->findConstructor("L"),
             S.Terms.mkGt(I, S.Terms.intConst(0)), {});
  A->addRule(P, *Sig->findConstructor("N"), S.Terms.trueTerm(),
             {{P}, {P}});
  return TreeLanguage(std::move(A), P);
}

/// `lang o : BT { L() where (odd i) | N(x, y) given (o x) (o y) }`
/// — all labels odd (Example 2's o).
inline TreeLanguage makeAllOddLang(Session &S, const SignatureRef &Sig) {
  auto A = std::make_shared<Sta>(Sig);
  unsigned O = A->addState("o");
  TermRef I = Sig->attrTerm(S.Terms, 0);
  TermRef Odd =
      S.Terms.mkEq(S.Terms.mkMod(I, S.Terms.intConst(2)), S.Terms.intConst(1));
  A->addRule(O, *Sig->findConstructor("L"), Odd, {});
  A->addRule(O, *Sig->findConstructor("N"), Odd, {{O}, {O}});
  return TreeLanguage(std::move(A), O);
}

/// The map_caesar transducer of Figure 8: replaces each list value x by
/// (x + 5) % 26.
inline std::shared_ptr<Sttr> makeMapCaesar(Session &S, const SignatureRef &Sig) {
  auto T = std::make_shared<Sttr>(Sig);
  unsigned Q = T->addState("map_caesar");
  T->setStartState(Q);
  unsigned Nil = *Sig->findConstructor("nil");
  unsigned Cons = *Sig->findConstructor("cons");
  TermRef I = Sig->attrTerm(S.Terms, 0);
  TermRef Shifted =
      S.Terms.mkMod(S.Terms.mkAdd(I, S.Terms.intConst(5)), S.Terms.intConst(26));
  T->addRule(Q, Nil, S.Terms.trueTerm(), {},
             S.Outputs.mkCons(Nil, {S.Terms.intConst(0)}, {}));
  T->addRule(Q, Cons, S.Terms.trueTerm(), {{}},
             S.Outputs.mkCons(Cons, {Shifted}, {S.Outputs.mkState(Q, 0)}));
  return T;
}

/// The filter_ev transducer of Figure 8: keeps even values, drops odd ones.
inline std::shared_ptr<Sttr> makeFilterEven(Session &S,
                                            const SignatureRef &Sig) {
  auto T = std::make_shared<Sttr>(Sig);
  unsigned Q = T->addState("filter_ev");
  T->setStartState(Q);
  unsigned Nil = *Sig->findConstructor("nil");
  unsigned Cons = *Sig->findConstructor("cons");
  TermRef I = Sig->attrTerm(S.Terms, 0);
  TermRef Even =
      S.Terms.mkEq(S.Terms.mkMod(I, S.Terms.intConst(2)), S.Terms.intConst(0));
  T->addRule(Q, Nil, S.Terms.trueTerm(), {},
             S.Outputs.mkCons(Nil, {S.Terms.intConst(0)}, {}));
  T->addRule(Q, Cons, Even, {{}},
             S.Outputs.mkCons(Cons, {I}, {S.Outputs.mkState(Q, 0)}));
  T->addRule(Q, Cons, S.Terms.mkNot(Even), {{}}, S.Outputs.mkState(Q, 0));
  return T;
}

} // namespace fast::test

#endif // FAST_TESTS_TESTUTIL_H
