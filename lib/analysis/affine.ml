(** Thread-index-affine expressions and the integer (in)feasibility
    procedures behind the static race checker.

    Every value the checker can reason about precisely is an affine
    combination over a set of {e symbols}: thread induction variables,
    per-thread-instance loop counters, and opaque-but-uniform
    quantities (kernel parameters, lockstep loop counters, results of
    non-affine uniform arithmetic such as [1 << k]). A symbol carries
    an optional constant interval from a small abstract interpretation
    (loop-bound propagation, monotone shift arithmetic), which feeds
    the solver as weak bounds.

    Race queries become conjunctive systems of affine equalities and
    inequalities over two renamed instances of the thread symbols. The
    decision stack, from cheap to precise:

    - Fourier–Motzkin elimination over the rationals, with integer
      tightening (rows are gcd-normalized with floor division), which
      is a sound infeasibility test over the integers; when it fails
      on a system with equalities it is retried after substituting
      away every variable with a unit coefficient in an equality
      (exact over the integers), since the order in which
      Fourier–Motzkin eliminates the variables of an equality decides
      whether tightening sees their congruence;
    - a modulus-interval test for each equality [E = 0]: for a
      candidate modulus [m] dividing some coefficients, the
      non-divisible residue [S] must be a multiple of [m]; its weak
      interval either contains no multiple (infeasible) or finitely
      many, each of which is re-checked as [S = q*m] — subsuming the
      classical GCD test and deciding tiled-index disjointness such as
      [16*tx + i = 17*i];
    - a congruence rule for modulo guards ([e % m == 0] on both
      instances forces [e1 - e2 ≡ 0 (mod m)]; if the system bounds
      [|e1 - e2| < m], the difference must be exactly 0), which
      decides strided tree reductions like backprop's
      [if (ty % (2*s) == 0)]. *)

type kind =
  | Thread of int  (** thread induction variable, dimension index *)
  | Local  (** per-thread-instance (counter of a barrier-free loop) *)
  | Shared  (** uniform across the threads of a block *)

type sym = {
  sid : int;
  name : string;  (** printing hint, not an identity *)
  kind : kind;
  lo : int option;  (** weak constant bounds, inclusive *)
  hi : int option;
}

(** [const + sum coeff * sym]; terms sorted by [sid], coefficients
    nonzero. *)
type t = { const : int; terms : (sym * int) list }

let const n = { const = n; terms = [] }
let of_sym s = { const = 0; terms = [ (s, 1) ] }
let is_const a = a.terms = []

let rec merge_terms ts1 ts2 =
  match (ts1, ts2) with
  | [], ts | ts, [] -> ts
  | (s1, c1) :: r1, (s2, c2) :: r2 ->
      if s1.sid < s2.sid then (s1, c1) :: merge_terms r1 ts2
      else if s1.sid > s2.sid then (s2, c2) :: merge_terms ts1 r2
      else
        let c = c1 + c2 in
        if c = 0 then merge_terms r1 r2 else (s1, c) :: merge_terms r1 r2

let add a b = { const = a.const + b.const; terms = merge_terms a.terms b.terms }

let scale k a =
  if k = 0 then const 0
  else { const = k * a.const; terms = List.map (fun (s, c) -> (s, k * c)) a.terms }

let neg a = scale (-1) a
let sub a b = add a (neg b)
let add_const n a = { a with const = a.const + n }

(** [a * b] when one side is a constant. *)
let mul a b =
  if is_const a then Some (scale a.const b)
  else if is_const b then Some (scale b.const a)
  else None

let equal a b = a.const = b.const && List.equal (fun (s1, c1) (s2, c2) -> s1.sid = s2.sid && c1 = c2) a.terms b.terms

let syms a = List.map fst a.terms
let is_uniform a = List.for_all (fun (s, _) -> s.kind = Shared) a.terms
let is_thread_dep a = not (is_uniform a)

(** Mentions an actual thread-index symbol (as opposed to a local loop
    counter, which is per-instance but not a thread index). *)
let has_thread a =
  List.exists (fun (s, _) -> match s.kind with Thread _ -> true | Local | Shared -> false) a.terms

(** Apply [f] to every symbol, in term order, and restore the sid
    order of the terms. [f] must be injective on the symbols of [a]. *)
let map_syms (f : sym -> sym) a =
  let terms = List.map (fun (s, c) -> (f s, c)) a.terms in
  { a with terms = List.sort (fun (s1, _) (s2, _) -> compare s1.sid s2.sid) terms }

(** Rename the per-instance symbols (thread ivs and local loop
    counters); shared symbols are preserved so both instances agree on
    them. *)
let rename (f : sym -> sym) a =
  map_syms (fun s -> match s.kind with Shared -> s | Thread _ | Local -> f s) a

let pp ppf a =
  let pp_term first ppf (s, c) =
    if c = 1 then Fmt.pf ppf "%s%s" (if first then "" else " + ") s.name
    else if c = -1 then Fmt.pf ppf "%s%s" (if first then "-" else " - ") s.name
    else if c >= 0 then Fmt.pf ppf "%s%d*%s" (if first then "" else " + ") c s.name
    else Fmt.pf ppf "%s%d*%s" (if first then "-" else " - ") (-c) s.name
  in
  match a.terms with
  | [] -> Fmt.int ppf a.const
  | t0 :: rest ->
      pp_term true ppf t0;
      List.iter (pp_term false ppf) rest;
      if a.const > 0 then Fmt.pf ppf " + %d" a.const
      else if a.const < 0 then Fmt.pf ppf " - %d" (-a.const)

(** Weak constant interval of an affine expression from its symbols'
    intervals. *)
let interval a =
  let lo =
    List.fold_left
      (fun acc (s, c) ->
        match acc with
        | None -> None
        | Some v -> (
            match if c > 0 then s.lo else s.hi with Some b -> Some (v + (c * b)) | None -> None))
      (Some a.const) a.terms
  and hi =
    List.fold_left
      (fun acc (s, c) ->
        match acc with
        | None -> None
        | Some v -> (
            match if c > 0 then s.hi else s.lo with Some b -> Some (v + (c * b)) | None -> None))
      (Some a.const) a.terms
  in
  (lo, hi)

(* ------------------------------------------------------------------ *)
(* The decision procedure                                              *)
(* ------------------------------------------------------------------ *)

(** A conjunctive system: every [eqs] member is [= 0], every [ges]
    member is [>= 0]. *)
type system = { eqs : t list; ges : t list }

let empty = { eqs = []; ges = [] }
let with_eq a sys = { sys with eqs = a :: sys.eqs }
let with_ge a sys = { sys with ges = a :: sys.ges }

(* Solver rows: [cst + sum coeff*var >= 0] over symbol ids. *)
type row = { cst : int; coeffs : (int * int) list (* (sid, coeff), sorted *) }

let row_of a =
  { cst = a.const; coeffs = List.map (fun (s, c) -> (s.sid, c)) a.terms }

let rec merge_coeffs c1 c2 =
  match (c1, c2) with
  | [], c | c, [] -> c
  | (v1, a) :: r1, (v2, b) :: r2 ->
      if v1 < v2 then (v1, a) :: merge_coeffs r1 c2
      else if v1 > v2 then (v2, b) :: merge_coeffs c1 r2
      else
        let c = a + b in
        if c = 0 then merge_coeffs r1 r2 else (v1, c) :: merge_coeffs r1 r2

let row_combine k1 r1 k2 r2 =
  {
    cst = (k1 * r1.cst) + (k2 * r2.cst);
    coeffs =
      merge_coeffs
        (List.map (fun (v, c) -> (v, k1 * c)) r1.coeffs)
        (List.map (fun (v, c) -> (v, k2 * c)) r2.coeffs);
  }

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(** Integer tightening: divide by the gcd of the variable
    coefficients, flooring the constant (sound for integer-valued
    variables). *)
let normalize r =
  match r.coeffs with
  | [] -> r
  | (_, c0) :: rest ->
      let g = List.fold_left (fun g (_, c) -> gcd g c) (abs c0) rest in
      if g <= 1 then r
      else
        {
          cst = (if r.cst >= 0 then r.cst / g else -((-r.cst + g - 1) / g));
          coeffs = List.map (fun (v, c) -> (v, c / g)) r.coeffs;
        }

(* A cap on intermediate rows: systems here are tiny (two instances of
   a handful of symbols), so hitting the cap means something
   pathological — give up and treat the system as (possibly)
   feasible, which is the conservative direction. *)
let max_rows = 4096

exception Too_big

(** Fourier–Motzkin: [true] means the system is certainly infeasible
    over the integers; [false] means "not proven infeasible". *)
let fm_infeasible (rows : row list) : bool =
  let exception Infeasible in
  let contradicts r = r.coeffs = [] && r.cst < 0 in
  let step rows =
    (* eliminate the variable with the fewest pos*neg combinations *)
    let occ = Hashtbl.create 16 in
    List.iter
      (fun r ->
        List.iter
          (fun (v, c) ->
            let p, n = try Hashtbl.find occ v with Not_found -> (0, 0) in
            Hashtbl.replace occ v (if c > 0 then (p + 1, n) else (p, n + 1)))
          r.coeffs)
      rows;
    let best = ref None in
    Hashtbl.iter
      (fun v (p, n) ->
        let cost = p * n in
        match !best with Some (_, c) when c <= cost -> () | _ -> best := Some (v, cost))
      occ;
    match !best with
    | None -> None
    | Some (v, _) ->
        let pos, neg, rest =
          List.fold_left
            (fun (p, n, r) row ->
              match List.assoc_opt v row.coeffs with
              | Some c when c > 0 -> ((c, row) :: p, n, r)
              | Some c -> (p, (-c, row) :: n, r)
              | None -> (p, n, row :: r))
            ([], [], []) rows
        in
        let out = ref rest and n_out = ref (List.length rest) in
        let seen = Hashtbl.create 64 in
        let push r =
          let r = normalize r in
          if contradicts r then raise Infeasible;
          if r.coeffs <> [] || r.cst < 0 then
            if not (Hashtbl.mem seen (r.cst, r.coeffs)) then begin
              Hashtbl.add seen (r.cst, r.coeffs) ();
              out := r :: !out;
              incr n_out;
              if !n_out > max_rows then raise Too_big
            end
        in
        List.iter (fun (a, rp) -> List.iter (fun (b, rn) -> push (row_combine b rp a rn)) neg) pos;
        Some !out
  in
  try
    let rows = List.map normalize rows in
    if List.exists contradicts rows then true
    else begin
      let rows = ref rows in
      let continue_ = ref true in
      while !continue_ do
        match step !rows with
        | None -> continue_ := false
        | Some rs -> rows := rs
      done;
      List.exists contradicts !rows
    end
  with
  | Infeasible -> true
  | Too_big -> false

(** All rows of a system: equalities as two inequalities, plus weak
    interval bounds for every symbol that has them. *)
let rows_of (sys : system) : row list =
  let bounds = Hashtbl.create 16 in
  let note a =
    List.iter
      (fun (s, _) -> if not (Hashtbl.mem bounds s.sid) then Hashtbl.add bounds s.sid s)
      a.terms
  in
  List.iter note sys.eqs;
  List.iter note sys.ges;
  let brows =
    Hashtbl.fold
      (fun sid s acc ->
        let acc =
          match s.lo with
          | Some lo -> { cst = -lo; coeffs = [ (sid, 1) ] } :: acc
          | None -> acc
        in
        match s.hi with
        | Some hi -> { cst = hi; coeffs = [ (sid, -1) ] } :: acc
        | None -> acc)
      bounds []
  in
  List.concat_map (fun a -> [ row_of a; row_of (neg a) ]) sys.eqs
  @ List.map row_of sys.ges @ brows

(** Exact elimination of equalities over the integers: while some
    equality [c*s + rest = 0] has a coefficient [c = ±1], substitute
    [s = -c * rest] everywhere and keep the weak bounds of [s] as
    inequalities on [-c * rest]. The integer solutions are unchanged,
    and the rewritten rows expose congruences to integer tightening
    that Fourier–Motzkin loses when it eliminates another variable of
    the equality first. *)
let substitute_unit_eqs (sys : system) : system =
  let without s a = { a with terms = List.filter (fun (s', _) -> s'.sid <> s.sid) a.terms } in
  (* the first equality with a unit coefficient, solved for its symbol,
     and the other equalities *)
  let rec solve before = function
    | [] -> None
    | e :: rest -> (
        match List.find_opt (fun (_, c) -> abs c = 1) e.terms with
        | Some (s, c) -> Some (s, scale (-c) (without s e), List.rev_append before rest)
        | None -> solve (e :: before) rest)
  in
  let rec go sys =
    match solve [] sys.eqs with
    | None -> sys
    | Some (s, sol, eqs) ->
        let subst a =
          match List.assoc_opt s a.terms with
          | None -> a
          | Some k -> add (without s a) (scale k sol)
        in
        let bounds =
          (match s.lo with Some l -> [ add_const (-l) sol ] | None -> [])
          @ match s.hi with Some h -> [ add_const h (neg sol) ] | None -> []
        in
        go { eqs = List.map subst eqs; ges = bounds @ List.map subst sys.ges }
  in
  go sys

(** Candidate moduli for the modulus-interval test on an equality: the
    distinct absolute coefficient values above 1. *)
let moduli a =
  List.sort_uniq compare (List.filter_map (fun (_, c) -> if abs c > 1 then Some (abs c) else None) a.terms)

let rec infeasible ?(depth = 2) (sys : system) : bool =
  fm_infeasible (rows_of sys)
  || (sys.eqs <> [] && fm_infeasible (rows_of (substitute_unit_eqs sys)))
  || depth > 0
     && List.exists
          (fun e ->
            List.exists
              (fun m ->
                (* S = the part of [e] not divisible by [m]; then
                   S ≡ 0 (mod m). *)
                let s_part =
                  {
                    const = e.const;
                    terms = List.filter (fun (_, c) -> c mod m <> 0) e.terms;
                  }
                in
                (* no information if nothing was divisible *)
                List.length s_part.terms < List.length e.terms
                &&
                match interval s_part with
                | Some lo, Some hi ->
                    let q0 =
                      (* smallest multiple of m that is >= lo *)
                      if lo >= 0 then (lo + m - 1) / m * m else -(-lo / m * m)
                    in
                    let rec mults q acc = if q > hi then List.rev acc else mults (q + m) (q :: acc) in
                    let qs = mults q0 [] in
                    List.length qs <= 8
                    && List.for_all
                         (fun q -> infeasible ~depth:(depth - 1) (with_eq (add_const (-q) s_part) sys))
                         qs
                | _ -> false)
              (moduli e))
          sys.eqs

(** The congruence rule for a pair of modulo guards: both instances
    satisfy [e ≡ 0 (mod m)] for the same uniform [m], so
    [d = e1 - e2 ≡ 0 (mod m)]. If the system proves [d >= m] and
    [d <= -m] and [d = 0] all infeasible, the system itself is
    infeasible. Requires [m >= 1] to be implied by the system (symbol
    intervals). *)
let mod_guard_infeasible ?(depth = 1) (sys : system) ~(d : t) ~(m : t) : bool =
  infeasible ~depth (with_ge (sub d m) sys)
  && infeasible ~depth (with_ge (sub (neg d) m) sys)
  && infeasible ~depth (with_eq d sys)
