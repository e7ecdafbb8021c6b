type t = { mutable n : int; mutable mu : float; mutable m2 : float }

let create () = { n = 0; mu = 0.; m2 = 0. }

let add t x =
  t.n <- t.n + 1;
  let d = x -. t.mu in
  t.mu <- t.mu +. (d /. float_of_int t.n);
  t.m2 <- t.m2 +. (d *. (x -. t.mu))

let count t = t.n
let mean t = t.mu
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)

let merge a b =
  if a.n = 0 then { n = b.n; mu = b.mu; m2 = b.m2 }
  else if b.n = 0 then { n = a.n; mu = a.mu; m2 = a.m2 }
  else begin
    let n = a.n + b.n in
    let d = b.mu -. a.mu in
    let nf = float_of_int n in
    let mu = a.mu +. (d *. float_of_int b.n /. nf) in
    let m2 =
      a.m2 +. b.m2 +. (d *. d *. float_of_int a.n *. float_of_int b.n /. nf)
    in
    { n; mu; m2 }
  end

module Moments = struct
  type t = {
    mutable n : int;
    mutable mu : float;
    mutable m2 : float;
    mutable m3 : float;
    mutable m4 : float;
  }

  let create () = { n = 0; mu = 0.; m2 = 0.; m3 = 0.; m4 = 0. }
  let copy t = { t with n = t.n }

  let add t x =
    let n1 = float_of_int t.n in
    t.n <- t.n + 1;
    let n = float_of_int t.n in
    let d = x -. t.mu in
    let dn = d /. n in
    let dn2 = dn *. dn in
    let term1 = d *. dn *. n1 in
    t.mu <- t.mu +. dn;
    t.m4 <-
      t.m4
      +. (term1 *. dn2 *. ((n *. n) -. (3. *. n) +. 3.))
      +. (6. *. dn2 *. t.m2) -. (4. *. dn *. t.m3);
    t.m3 <- t.m3 +. (term1 *. dn *. (n -. 2.)) -. (3. *. dn *. t.m2);
    t.m2 <- t.m2 +. term1

  let count t = t.n
  let mean t = t.mu
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let central2 t = if t.n = 0 then 0. else t.m2 /. float_of_int t.n
  let central3 t = if t.n = 0 then 0. else t.m3 /. float_of_int t.n
  let central4 t = if t.n = 0 then 0. else t.m4 /. float_of_int t.n

  let merge a b =
    if a.n = 0 then copy b
    else if b.n = 0 then copy a
    else begin
      let na = float_of_int a.n and nb = float_of_int b.n in
      let n = na +. nb in
      let d = b.mu -. a.mu in
      let d2 = d *. d in
      let mu = a.mu +. (d *. nb /. n) in
      let m2 = a.m2 +. b.m2 +. (d2 *. na *. nb /. n) in
      let m3 =
        a.m3 +. b.m3
        +. (d2 *. d *. na *. nb *. (na -. nb) /. (n *. n))
        +. (3. *. d *. ((na *. b.m2) -. (nb *. a.m2)) /. n)
      in
      let m4 =
        a.m4 +. b.m4
        +. (d2 *. d2 *. na *. nb
            *. ((na *. na) -. (na *. nb) +. (nb *. nb))
            /. (n *. n *. n))
        +. (6. *. d2
            *. ((na *. na *. b.m2) +. (nb *. nb *. a.m2))
            /. (n *. n))
        +. (4. *. d *. ((na *. b.m3) -. (nb *. a.m3)) /. n)
      in
      { n = a.n + b.n; mu; m2; m3; m4 }
    end
end
