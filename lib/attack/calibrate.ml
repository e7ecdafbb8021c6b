(* The least-squares fit over every (HW, sample) point of [points], the
   sums added point by point from the last (sample, word) pair's last
   trace back to the first pair's first trace.  The loops close over no
   float accumulator, so the sums stay unboxed. *)
let estimate ~traces ~known points =
  let points = Array.of_list points and d = Array.length traces in
  let n = float_of_int (Array.length points * d) in
  let sx = ref 0. and sy = ref 0. and sxx = ref 0. and sxy = ref 0. in
  for p = Array.length points - 1 downto 0 do
    let sample, word_of = points.(p) in
    for i = d - 1 downto 0 do
      let x = float_of_int (Bitops.popcount (word_of known.(i))) in
      let y = traces.(i).(sample) in
      sx := !sx +. x;
      sy := !sy +. y;
      sxx := !sxx +. (x *. x);
      sxy := !sxy +. (x *. y)
    done
  done;
  let denom = !sxx -. (!sx *. !sx /. n) in
  if denom <= 0. then (1., 0.)
  else begin
    let alpha = (!sxy -. (!sx *. !sy /. n)) /. denom in
    let baseline = (!sy -. (alpha *. !sx)) /. n in
    (alpha, baseline)
  end
