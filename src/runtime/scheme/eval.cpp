#include "runtime/scheme/engine.hpp"
#include "support/fiber.hpp"
#include "support/strings.hpp"

// The Vessel evaluator: environment-passing interpreter with proper tail
// calls (the TCO loop below), matching the tail-call-elimination behaviour
// the paper lists among Racket's challenging features.

namespace mv::scheme {

namespace {

bool list_get(Value list, std::size_t index, Value* out) {
  Value cur = list;
  for (std::size_t i = 0; i < index; ++i) {
    if (!cur.is_pair()) return false;
    cur = cur.cell->cdr;
  }
  if (!cur.is_pair()) return false;
  *out = cur.cell->car;
  return true;
}

std::size_t list_length(Value list) {
  std::size_t n = 0;
  for (Value cur = list; cur.is_pair(); cur = cur.cell->cdr) ++n;
  return n;
}

}  // namespace

// Quasiquote templates: unquotes evaluate at depth 1; nested quasiquotes
// raise the depth (no unquote-splicing — the dialect does not need it).
Result<Value> Engine::eval_quasiquote(Value tmpl, Cell* env, int depth) {
  if (!tmpl.is_pair()) return tmpl;
  const Value head = tmpl.cell->car;
  const Value tail = tmpl.cell->cdr;

  if (head.is_sym() && head.sym == s_unquote_ && tail.is_pair()) {
    if (depth == 1) return eval(tail.cell->car, env);
    RootScope scope(heap_);
    scope.add(tmpl);
    MV_ASSIGN_OR_RETURN(const Value inner,
                        eval_quasiquote(tail.cell->car, env, depth - 1));
    scope.add(inner);
    MV_ASSIGN_OR_RETURN(const Value rebuilt, cons(inner, Value::nil()));
    scope.add(rebuilt);
    return cons(head, rebuilt);
  }
  if (head.is_sym() && head.sym == s_quasiquote_ && tail.is_pair()) {
    RootScope scope(heap_);
    scope.add(tmpl);
    MV_ASSIGN_OR_RETURN(const Value inner,
                        eval_quasiquote(tail.cell->car, env, depth + 1));
    scope.add(inner);
    MV_ASSIGN_OR_RETURN(const Value rebuilt, cons(inner, Value::nil()));
    scope.add(rebuilt);
    return cons(head, rebuilt);
  }

  RootScope scope(heap_);
  scope.add(tmpl);
  MV_ASSIGN_OR_RETURN(const Value new_car, eval_quasiquote(head, env, depth));
  scope.add(new_car);
  MV_ASSIGN_OR_RETURN(const Value new_cdr, eval_quasiquote(tail, env, depth));
  scope.add(new_cdr);
  return cons(new_car, new_cdr);
}

Result<Value> Engine::eval_args(Value list, Cell* env,
                                std::vector<Value>* out) {
  RootScope scope(heap_);
  for (Value cur = list; !cur.is_nil(); cur = cur.cell->cdr) {
    if (!cur.is_pair()) return err(Err::kInval, "improper argument list");
    MV_ASSIGN_OR_RETURN(const Value v, eval(cur.cell->car, env));
    scope.add(v);
    out->push_back(v);
  }
  return Value::unspecified();
}

// Binds a closure's parameters to `args` in a fresh environment.
Result<Value> Engine::apply_closure_env(Cell* closure,
                                        std::vector<Value>& args,
                                        Cell** env_out) {
  RootScope scope(heap_);
  scope.add(Value::from_cell(closure));
  for (const Value& a : args) scope.add(a);
  MV_ASSIGN_OR_RETURN(Cell* const frame, make_env(closure->closure_env));
  scope.add(Value::from_cell(frame));
  const std::size_t fixed = closure->params.size();
  if (args.size() < fixed || (!closure->has_rest && args.size() > fixed)) {
    return err(Err::kInval,
               strfmt("%s: expected %zu argument(s), got %zu",
                      closure->proc_name.empty() ? "procedure"
                                                 : closure->proc_name.c_str(),
                      fixed, args.size()));
  }
  frame->bindings.reserve(fixed + (closure->has_rest ? 1 : 0));
  for (std::size_t i = 0; i < fixed; ++i) {
    frame->bindings.emplace_back(closure->params[i], args[i]);
  }
  if (closure->has_rest) {
    Value rest = Value::nil();
    for (std::size_t i = args.size(); i-- > fixed;) {
      scope.add(rest);
      MV_ASSIGN_OR_RETURN(rest, cons(args[i], rest));
    }
    frame->bindings.emplace_back(closure->rest_param, rest);
  }
  *env_out = frame;
  return Value::unspecified();
}

// Evaluates all but the last body form; hands the last back for the caller's
// TCO loop.
Result<Value> Engine::eval_body_tail(Value body, Cell* env, Value* tail_expr,
                                     Cell** tail_env) {
  if (!body.is_pair()) {
    *tail_expr = Value::unspecified();
    *tail_env = env;
    return Value::unspecified();
  }
  while (body.cell->cdr.is_pair()) {
    MV_RETURN_IF_ERROR(eval(body.cell->car, env).status());
    body = body.cell->cdr;
  }
  *tail_expr = body.cell->car;
  *tail_env = env;
  return Value::unspecified();
}

Result<Value> Engine::eval(Value expr, Cell* env) {
  // Non-tail recursion nests host frames. Fail while the stack still has
  // room for one more level plus whatever builtin it calls (frames are
  // several times larger under sanitizers, hence the generous reserve).
  // Host-side only: no simulated cycles are charged.
  constexpr std::size_t kStackReserve = 256 * 1024;
  if (Fiber::stack_headroom() < kStackReserve) {
    return err(Err::kLimit, "recursion too deep for the evaluator's stack");
  }
  for (;;) {
    RootScope scope(heap_);
    scope.add(expr);
    if (env != nullptr) scope.add(Value::from_cell(env));
    count_step();

    if (expr.is_sym()) return env_lookup(env, expr.sym);
    if (!expr.is_pair()) return expr;  // literals self-evaluate

    const Value op = expr.cell->car;
    const Value rest = expr.cell->cdr;

    if (op.is_sym()) {
      const SymId s = op.sym;

      if (s == s_quote_) {
        Value quoted;
        if (!list_get(rest, 0, &quoted)) return err(Err::kInval, "quote");
        return quoted;
      }

      if (s == s_quasiquote_) {
        Value tmpl;
        if (!list_get(rest, 0, &tmpl)) return err(Err::kInval, "quasiquote");
        return eval_quasiquote(tmpl, env, 1);
      }
      if (s == s_unquote_) {
        return err(Err::kInval, "unquote outside quasiquote");
      }

      if (s == s_if_) {
        Value test, conseq;
        if (!list_get(rest, 0, &test) || !list_get(rest, 1, &conseq)) {
          return err(Err::kInval, "if: malformed");
        }
        MV_ASSIGN_OR_RETURN(const Value t, eval(test, env));
        if (t.truthy()) {
          expr = conseq;
        } else {
          Value alt;
          if (!list_get(rest, 2, &alt)) return Value::unspecified();
          expr = alt;
        }
        continue;  // tail
      }

      if (s == s_define_) {
        Value target;
        if (!list_get(rest, 0, &target)) return err(Err::kInval, "define");
        if (target.is_sym()) {
          Value init;
          if (!list_get(rest, 1, &init)) return err(Err::kInval, "define");
          MV_ASSIGN_OR_RETURN(Value v, eval(init, env));
          // Name anonymous lambdas after their binding.
          if (v.is_cell() && v.cell->type == Cell::Type::kClosure &&
              v.cell->proc_name.empty()) {
            v.cell->proc_name = sym_name(target.sym);
          }
          MV_RETURN_IF_ERROR(env_define(env, target.sym, v));
          return Value::unspecified();
        }
        if (target.is_pair()) {
          // (define (name params...) body...)
          const Value name = target.cell->car;
          if (!name.is_sym()) return err(Err::kInval, "define: bad name");
          MV_ASSIGN_OR_RETURN(Cell* const fn,
                              heap_.alloc(Cell::Type::kClosure));
          scope.add(Value::from_cell(fn));
          fn->proc_name = sym_name(name.sym);
          Value params = target.cell->cdr;
          while (params.is_pair()) {
            if (!params.cell->car.is_sym()) {
              return err(Err::kInval, "define: bad parameter");
            }
            fn->params.push_back(params.cell->car.sym);
            params = params.cell->cdr;
          }
          if (params.is_sym()) {
            fn->has_rest = true;
            fn->rest_param = params.sym;
          }
          fn->body = rest.cell->cdr;
          fn->closure_env = env;
          MV_RETURN_IF_ERROR(env_define(env, name.sym,
                                        Value::from_cell(fn)));
          return Value::unspecified();
        }
        return err(Err::kInval, "define: bad target");
      }

      if (s == s_set_) {
        Value name, init;
        if (!list_get(rest, 0, &name) || !list_get(rest, 1, &init) ||
            !name.is_sym()) {
          return err(Err::kInval, "set!: malformed");
        }
        MV_ASSIGN_OR_RETURN(const Value v, eval(init, env));
        MV_RETURN_IF_ERROR(env_set(env, name.sym, v));
        return Value::unspecified();
      }

      if (s == s_lambda_) {
        MV_ASSIGN_OR_RETURN(Cell* const fn, heap_.alloc(Cell::Type::kClosure));
        Value params;
        if (!list_get(rest, 0, &params)) return err(Err::kInval, "lambda");
        if (params.is_sym()) {
          fn->has_rest = true;
          fn->rest_param = params.sym;
        } else {
          while (params.is_pair()) {
            if (!params.cell->car.is_sym()) {
              return err(Err::kInval, "lambda: bad parameter");
            }
            fn->params.push_back(params.cell->car.sym);
            params = params.cell->cdr;
          }
          if (params.is_sym()) {
            fn->has_rest = true;
            fn->rest_param = params.sym;
          }
        }
        fn->body = rest.cell->cdr;
        fn->closure_env = env;
        return Value::from_cell(fn);
      }

      if (s == s_begin_) {
        Value tail;
        Cell* tenv;
        MV_RETURN_IF_ERROR(eval_body_tail(rest, env, &tail, &tenv).status());
        expr = tail;
        env = tenv;
        continue;
      }

      if (s == s_let_ || s == s_letrec_ || s == s_let_star_) {
        Value first;
        if (!list_get(rest, 0, &first)) return err(Err::kInval, "let");
        if (s == s_let_ && first.is_sym()) {
          // Named let: (let loop ((v init)...) body...)
          Value bindings;
          if (!list_get(rest, 1, &bindings)) return err(Err::kInval, "let");
          MV_ASSIGN_OR_RETURN(Cell* const loop_env, make_env(env));
          scope.add(Value::from_cell(loop_env));
          MV_ASSIGN_OR_RETURN(Cell* const fn,
                              heap_.alloc(Cell::Type::kClosure));
          scope.add(Value::from_cell(fn));
          fn->proc_name = sym_name(first.sym);
          fn->body = rest.cell->cdr.cell->cdr;
          fn->closure_env = loop_env;
          std::vector<Value> inits;
          for (Value b = bindings; b.is_pair(); b = b.cell->cdr) {
            Value name, init;
            if (!list_get(b.cell->car, 0, &name) || !name.is_sym()) {
              return err(Err::kInval, "named let: bad binding");
            }
            fn->params.push_back(name.sym);
            if (!list_get(b.cell->car, 1, &init)) init = Value::unspecified();
            MV_ASSIGN_OR_RETURN(const Value v, eval(init, env));
            scope.add(v);
            inits.push_back(v);
          }
          loop_env->bindings.emplace_back(first.sym, Value::from_cell(fn));
          Cell* call_env = nullptr;
          MV_RETURN_IF_ERROR(
              apply_closure_env(fn, inits, &call_env).status());
          scope.add(Value::from_cell(call_env));
          Value tail;
          Cell* tenv;
          MV_RETURN_IF_ERROR(
              eval_body_tail(fn->body, call_env, &tail, &tenv).status());
          expr = tail;
          env = tenv;
          continue;
        }
        // Plain let / let* / letrec.
        MV_ASSIGN_OR_RETURN(Cell* const frame, make_env(env));
        scope.add(Value::from_cell(frame));
        if (s == s_letrec_) {
          for (Value b = first; b.is_pair(); b = b.cell->cdr) {
            Value name;
            if (!list_get(b.cell->car, 0, &name) || !name.is_sym()) {
              return err(Err::kInval, "letrec: bad binding");
            }
            frame->bindings.emplace_back(name.sym, Value::unspecified());
          }
        }
        for (Value b = first; b.is_pair(); b = b.cell->cdr) {
          Value name, init;
          if (!list_get(b.cell->car, 0, &name) || !name.is_sym()) {
            return err(Err::kInval, "let: bad binding");
          }
          if (!list_get(b.cell->car, 1, &init)) init = Value::unspecified();
          // let evaluates inits in the outer env; let*/letrec in the frame.
          Cell* init_env = s == s_let_ ? env : frame;
          MV_ASSIGN_OR_RETURN(const Value v, eval(init, init_env));
          scope.add(v);
          if (s == s_letrec_) {
            MV_RETURN_IF_ERROR(env_set(frame, name.sym, v));
          } else {
            MV_RETURN_IF_ERROR(env_define(frame, name.sym, v));
          }
        }
        Value tail;
        Cell* tenv;
        MV_RETURN_IF_ERROR(
            eval_body_tail(rest.cell->cdr, frame, &tail, &tenv).status());
        expr = tail;
        env = tenv;
        continue;
      }

      if (s == s_cond_) {
        bool matched = false;
        for (Value clause = rest; clause.is_pair();
             clause = clause.cell->cdr) {
          Value head;
          if (!list_get(clause.cell->car, 0, &head)) {
            return err(Err::kInval, "cond: bad clause");
          }
          Value test_result;
          if (head.is_sym() && head.sym == s_else_) {
            test_result = Value::boolean(true);
          } else {
            MV_ASSIGN_OR_RETURN(test_result, eval(head, env));
          }
          if (!test_result.truthy()) continue;
          const Value body = clause.cell->car.cell->cdr;
          if (!body.is_pair()) return test_result;  // (cond (x)) yields x
          Value tail;
          Cell* tenv;
          MV_RETURN_IF_ERROR(
              eval_body_tail(body, env, &tail, &tenv).status());
          expr = tail;
          env = tenv;
          matched = true;
          break;
        }
        if (matched) continue;
        return Value::unspecified();
      }

      if (s == s_case_) {
        Value key_expr;
        if (!list_get(rest, 0, &key_expr)) return err(Err::kInval, "case");
        MV_ASSIGN_OR_RETURN(const Value key, eval(key_expr, env));
        scope.add(key);
        for (Value clause = rest.cell->cdr; clause.is_pair();
             clause = clause.cell->cdr) {
          Value data;
          if (!list_get(clause.cell->car, 0, &data)) {
            return err(Err::kInval, "case: bad clause");
          }
          bool hit = data.is_sym() && data.sym == s_else_;
          for (Value d = data; !hit && d.is_pair(); d = d.cell->cdr) {
            hit = value_eqv(key, d.cell->car);
          }
          if (!hit) continue;
          Value tail;
          Cell* tenv;
          MV_RETURN_IF_ERROR(eval_body_tail(clause.cell->car.cell->cdr, env,
                                            &tail, &tenv)
                                 .status());
          expr = tail;
          env = tenv;
          hit = true;
          goto tail_continue;
        }
        return Value::unspecified();
      tail_continue:
        continue;
      }

      if (s == s_and_) {
        if (!rest.is_pair()) return Value::boolean(true);
        Value cur = rest;
        while (cur.cell->cdr.is_pair()) {
          MV_ASSIGN_OR_RETURN(const Value v, eval(cur.cell->car, env));
          if (!v.truthy()) return v;
          cur = cur.cell->cdr;
        }
        expr = cur.cell->car;
        continue;
      }

      if (s == s_or_) {
        if (!rest.is_pair()) return Value::boolean(false);
        Value cur = rest;
        while (cur.cell->cdr.is_pair()) {
          MV_ASSIGN_OR_RETURN(const Value v, eval(cur.cell->car, env));
          if (v.truthy()) return v;
          cur = cur.cell->cdr;
        }
        expr = cur.cell->car;
        continue;
      }

      if (s == s_when_ || s == s_unless_) {
        Value test;
        if (!list_get(rest, 0, &test)) return err(Err::kInval, "when/unless");
        MV_ASSIGN_OR_RETURN(const Value t, eval(test, env));
        const bool go = s == s_when_ ? t.truthy() : !t.truthy();
        if (!go) return Value::unspecified();
        Value tail;
        Cell* tenv;
        MV_RETURN_IF_ERROR(
            eval_body_tail(rest.cell->cdr, env, &tail, &tenv).status());
        expr = tail;
        env = tenv;
        continue;
      }

      if (s == s_do_) {
        // (do ((var init step)...) (test result...) body...)
        Value bindings, exit_clause;
        if (!list_get(rest, 0, &bindings) || !list_get(rest, 1, &exit_clause)) {
          return err(Err::kInval, "do: malformed");
        }
        MV_ASSIGN_OR_RETURN(Cell* const frame, make_env(env));
        scope.add(Value::from_cell(frame));
        struct Stepper {
          SymId var;
          Value step;
          bool has_step;
        };
        std::vector<Stepper> steppers;
        for (Value b = bindings; b.is_pair(); b = b.cell->cdr) {
          Value name, init, step;
          if (!list_get(b.cell->car, 0, &name) || !name.is_sym()) {
            return err(Err::kInval, "do: bad binding");
          }
          if (!list_get(b.cell->car, 1, &init)) init = Value::unspecified();
          const bool has_step = list_get(b.cell->car, 2, &step);
          MV_ASSIGN_OR_RETURN(const Value v, eval(init, env));
          frame->bindings.emplace_back(name.sym, v);
          steppers.push_back(Stepper{name.sym, step, has_step});
        }
        Value test;
        if (!list_get(exit_clause, 0, &test)) {
          return err(Err::kInval, "do: bad exit clause");
        }
        const Value body = rest.cell->cdr.cell->cdr;
        for (;;) {
          count_step();
          MV_ASSIGN_OR_RETURN(const Value t, eval(test, frame));
          if (t.truthy()) {
            const Value results = exit_clause.cell->cdr;
            if (!results.is_pair()) return Value::unspecified();
            Value tail;
            Cell* tenv;
            MV_RETURN_IF_ERROR(
                eval_body_tail(results, frame, &tail, &tenv).status());
            expr = tail;
            env = tenv;
            break;
          }
          for (Value b = body; b.is_pair(); b = b.cell->cdr) {
            MV_RETURN_IF_ERROR(eval(b.cell->car, frame).status());
          }
          // Evaluate all steps, then assign (simultaneous update).
          std::vector<Value> new_values;
          RootScope step_scope(heap_);
          for (const Stepper& st : steppers) {
            if (!st.has_step) {
              new_values.push_back(Value::unspecified());
              continue;
            }
            MV_ASSIGN_OR_RETURN(const Value v, eval(st.step, frame));
            step_scope.add(v);
            new_values.push_back(v);
          }
          for (std::size_t i = 0; i < steppers.size(); ++i) {
            if (steppers[i].has_step) {
              MV_RETURN_IF_ERROR(env_set(frame, steppers[i].var,
                                         new_values[i]));
            }
          }
        }
        continue;
      }
    }

    // --- application -------------------------------------------------------
    MV_ASSIGN_OR_RETURN(const Value fn, eval(op, env));
    scope.add(fn);
    std::vector<Value> args;
    args.reserve(list_length(rest));
    MV_RETURN_IF_ERROR(eval_args(rest, env, &args).status());
    for (const Value& a : args) scope.add(a);

    if (!fn.is_callable()) {
      return err(Err::kInval, "application of non-procedure: " +
                                  to_display(fn) + " in " + to_display(expr));
    }
    if (fn.cell->type == Cell::Type::kBuiltin) {
      return fn.cell->builtin(*this, args);
    }
    // Closure: tail-call into its body.
    Cell* call_env = nullptr;
    MV_RETURN_IF_ERROR(apply_closure_env(fn.cell, args, &call_env).status());
    scope.add(Value::from_cell(call_env));
    Value tail;
    Cell* tenv;
    MV_RETURN_IF_ERROR(
        eval_body_tail(fn.cell->body, call_env, &tail, &tenv).status());
    expr = tail;
    env = tenv;
  }
}

}  // namespace mv::scheme
